"""Batched client sessions against the sharded parameter store.

A :class:`ShardClient` is what a training cluster or inference node holds
instead of a raw store reference: it *stages* publishes so a whole window's
tables flush as one version bump (version batching), issues batched
multi-table delta pulls against a single per-client sync point, and charges
every transfer through the alpha-beta cost model of
:mod:`repro.cluster.collectives` over a :class:`repro.cluster.network`
link — shard fan-out happens in parallel, so a transfer pays the link's
setup latency once plus bandwidth time for the total volume.

Every pull runs one sequence: decide *coverage* (which primaries vouch for
their own key range, which ranges are read reconciled across the live
replicas, and whether that split provably returns every acknowledged
row), read, advance the sync point.  A pull the live replicas cannot
answer exactly never advances it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..collectives import CollectiveCostModel
from ..network import GBE_100, NetworkLink
from ..resilience.errors import DegradedReadError
from ..resilience.policy import (
    ATTEMPT_TIMEOUT_S,
    DEADLINE_S,
    MAX_ATTEMPTS,
    ResiliencePolicy,
    backoff_s,
)
from .store import QuorumError, ShardedParameterStore

__all__ = ["ClientTransferReport", "ShardClient"]


@dataclass
class ClientTransferReport:
    """Accounting for one batched publish flush or delta pull.

    ``outcome`` is ``"ok"``, ``"hedged"`` when at least one backup read
    fired, or ``"degraded"`` when the pull could not be answered exactly
    (nothing was read and the sync point did not move).  ``attempts``,
    ``hedges`` and ``retries`` count a resilient pull's modelled RPCs or a
    flush's publish attempts; a pull without a policy leaves them at 1/0/0.
    """

    version: int
    rows: int
    bytes: int
    seconds: float
    tables: list[str] = field(default_factory=list)
    outcome: str = "ok"
    degraded: bool = False
    attempts: int = 1
    hedges: int = 0
    retries: int = 0


@dataclass
class _Coverage:
    """How one pull's key ranges are answered, decided before any row moves.

    ``clean`` primaries read their own range; the ranges of the ``recon``
    primaries are read reconciled from ``available``.  ``exact`` is False
    when that split cannot provably return every acknowledged row.  The
    remaining fields are the resilient wave's accounting.
    """

    clean: list[int]
    recon: list[int]
    available: list[int]
    exact: bool
    seconds: float = 0.0
    attempts: int = 1
    hedges: int = 0
    retries: int = 0


class ShardClient:
    """One producer/consumer session against a :class:`ShardedParameterStore`.

    Parameters
    ----------
    store : ShardedParameterStore
        The shared parameter plane.
    link : repro.cluster.network.NetworkLink, optional
        Network path between this client and the store tier.
    faults : repro.cluster.faults.FaultPlane, optional
        Fault-injection plane (anything with a ``delay_factor`` float
        attribute works).  Active ``delay`` faults multiply the modelled
        transfer seconds of every flush and pull through this client —
        a degraded network, not a dead one.  When the plane also exposes
        ``slow_factor`` (a real ``FaultPlane``), the resilient wave models
        gray failures per shard.
    resilience : repro.cluster.resilience.ResiliencePolicy, optional
        When given, a pull's coverage comes from a modelled wave of
        per-shard RPCs — deadline, circuit breakers, hedged backup
        reads, deterministic retry backoff — its ``seconds`` are the
        wave's simulated time, and a pull the wave cannot cover exactly
        comes back ``degraded`` and empty, with the sync point where it
        was; flushes retry quorum refusals under the same backoff.
        ``None`` means no wave: coverage is read off the store state, a
        pull's ``seconds`` are the alpha-beta time of the rows moved, a
        flush publishes once, and an uncovered pull raises.

    Notes
    -----
    A flush that fails its write quorum raises
    :class:`~repro.cluster.shardstore.store.QuorumError` with the staged
    batches *preserved*: the client retries the same :meth:`flush` after
    the fleet heals, and no acknowledged-looking publish is ever lost.

    The first delta pull registers this client's sync point with the
    store, which pins log compaction at or above it.
    """

    def __init__(
        self,
        store: ShardedParameterStore,
        link: NetworkLink = GBE_100,
        faults=None,
        resilience: ResiliencePolicy | None = None,
    ) -> None:
        self.store = store
        self.link = link
        self.faults = faults
        self.resilience = resilience
        self.cost = CollectiveCostModel(link)
        self.synced_version = store.version
        self._staged: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {}
        self._sync_token: int | None = None
        self._pull_seq = 0
        self.push_log: list[ClientTransferReport] = []
        self.pull_log: list[ClientTransferReport] = []

    # ------------------------------------------------------------------ cost
    def transfer_seconds(self, nbytes: int) -> float:
        """Modelled wall time to move ``nbytes`` between client and store.

        Per-shard streams overlap, so the latency (alpha) term is paid once
        and the bandwidth (beta) term covers the total volume — the same
        closed form as ``link.transfer_seconds`` under the collectives'
        alpha-beta model.
        """
        if nbytes <= 0:
            return 0.0
        seconds = self.link.transfer_seconds(nbytes)
        if self.faults is not None:
            seconds *= float(self.faults.delay_factor)
        return seconds

    # --------------------------------------------------------------- publish
    def stage(self, table: str, indices: np.ndarray, rows: np.ndarray) -> None:
        """Queue rows for the next :meth:`flush` (no store interaction yet).

        Parameters
        ----------
        table : str
            Destination table.
        indices : numpy.ndarray of int64
            Row ids to publish.
        rows : numpy.ndarray
            ``(len(indices), dim)`` payloads.  Rows cross onto the
            store's lane here (the client side of publish): against a
            float32 store the checked downcast runs once at stage time
            and the staged copy already holds half the bytes.
        """
        indices, rows = self.store._normalize_batch(indices, rows)
        if indices.size:
            self._staged.setdefault(table, []).append((indices, rows))

    def flush(self) -> ClientTransferReport:
        """Publish everything staged as ONE version bump / sync event.

        Returns
        -------
        ClientTransferReport
            Rows/bytes moved and the alpha-beta modelled transfer time;
            ``version`` is the bump all staged tables landed under.

        Raises
        ------
        repro.cluster.shardstore.store.QuorumError
            When the store cannot reach its write quorum.  The staged
            batches are kept: retry the same flush after repair.  With a
            :attr:`resilience` policy the retry happens here, under the
            policy's deterministic backoff; the error only escapes once
            the attempt budget is spent.  Publishes are idempotent across
            these retries: a quorum refusal happens *before* any version
            bump or row application, so re-flushing the same staged
            batches can neither lose an acked write nor double-apply one.
        """
        policy = self.resilience
        max_attempts = 1 if policy is None else MAX_ATTEMPTS
        batches = [
            (
                table,
                np.concatenate([p[0] for p in parts]),
                np.concatenate([p[1] for p in parts], axis=0),
            )
            for table, parts in self._staged.items()
        ]
        version = self.store.version
        attempt = 1
        while batches:
            try:
                version = self.store.publish_many(batches)
                break
            except QuorumError:
                if attempt >= max_attempts:
                    raise
                policy.clock.advance(backoff_s(attempt, key=self._pull_seq))
                attempt += 1
        rows = sum(int(ids.size) for _, ids, _ in batches)
        nbytes = rows * self.store.row_bytes
        report = ClientTransferReport(
            version=version,
            rows=rows,
            bytes=nbytes,
            seconds=self.transfer_seconds(nbytes),
            tables=[t for t, _, _ in batches],
            attempts=attempt,
            retries=attempt - 1,
        )
        if batches:
            self._staged.clear()
            self.push_log.append(report)
        return report

    def publish(
        self, table: str, indices: np.ndarray, rows: np.ndarray
    ) -> ClientTransferReport:
        """Unbatched convenience: stage one table and flush immediately."""
        self.stage(table, indices, rows)
        return self.flush()

    # ------------------------------------------------------------------ pull
    def staleness_versions(self) -> int:
        """Publish events between this client's sync point and the store."""
        return self.store.version - self.synced_version

    def mark_synced(self) -> None:
        """Adopt the store's current version without pulling (full sync)."""
        self.synced_version = self.store.version
        if self._sync_token is not None:
            self.store.update_sync_point(self._sync_token, self.synced_version)

    def pull_tables(
        self,
        tables: list[str],
    ) -> tuple[dict[str, tuple[np.ndarray, np.ndarray]], ClientTransferReport]:
        """Batched delta pull for several tables since this client's sync point.

        Clean primaries (live, no missed publish past the sync point) answer
        their own key ranges; every other range is read reconciled across
        the live replicas.  The pull is exact when nothing needs
        reconciling or the live owners intersect every write quorum.

        Parameters
        ----------
        tables : list of str
            Tables to pull, all against the same sync point.

        Returns
        -------
        deltas : dict of str to (numpy.ndarray, numpy.ndarray)
            ``deltas[table] = (ids, rows)`` newer than the sync point;
            empty when the pull came back ``degraded``.
        report : ClientTransferReport
            Transfer accounting; on an exact pull the sync point advances
            to the store's current version — one round trip covers every
            table.

        Raises
        ------
        repro.cluster.resilience.errors.DegradedReadError
            When the pull cannot be answered exactly and the client has no
            :attr:`resilience` policy (a resilient client returns the
            ``degraded`` report instead).  Either way the sync point does
            not move, so the pull after repair re-reads the gap instead of
            skipping it.
        """
        store = self.store
        policy = self.resilience
        since = self.synced_version
        cover = (
            self._coverage(since)
            if policy is None
            else self._wave(tables, since)
        )
        deltas: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        total_rows = 0
        if cover.exact:
            for table in tables:
                ids, rows, _ = store.pull_covered(
                    table, since, cover.clean, cover.recon, cover.available
                )
                deltas[table] = (ids, rows)
                total_rows += int(ids.size)
            self.synced_version = store.version
            # Pullers pin compaction lazily, on first pull: a publish-only
            # client never registers, so it never holds the watermark back.
            if self._sync_token is None:
                self._sync_token = store.register_sync_point(
                    self.synced_version
                )
            else:
                store.update_sync_point(self._sync_token, self.synced_version)
        nbytes = total_rows * store.row_bytes
        report = ClientTransferReport(
            version=self.synced_version,
            rows=total_rows,
            bytes=nbytes,
            seconds=(
                self.transfer_seconds(nbytes) if policy is None else cover.seconds
            ),
            tables=list(tables),
            outcome=(
                "degraded" if not cover.exact
                else "hedged" if cover.hedges
                else "ok"
            ),
            degraded=not cover.exact,
            attempts=cover.attempts,
            hedges=cover.hedges,
            retries=cover.retries,
        )
        self.pull_log.append(report)
        if report.degraded:
            if policy is None:
                raise DegradedReadError(
                    list(tables), since, store.version, reason="coverage"
                )
            deltas = {table: store.empty_delta(table)[:2] for table in tables}
        return deltas, report

    # -------------------------------------------------------------- coverage
    def _coverage(self, since: int) -> _Coverage:
        """Coverage without a policy, one step over the store state.

        Clean means live and not suspect past ``since``; every other
        shard's range (down or suspect) is read reconciled from the live
        replicas.
        """
        store = self.store
        live = store.live_shard_ids
        suspects = set(store.suspect_shard_ids(since))
        clean = [sid for sid in live if sid not in suspects]
        recon = sorted(set(store.shard_ids).difference(clean))
        exact = not recon or store.placement.coverage_ok(store.replication, live)
        return _Coverage(clean, recon, live, exact)

    def _modelled_rpc_seconds(self, nbytes: int, shard_id: int) -> float:
        """Modelled latency of one per-shard RPC carrying ``nbytes``.

        At least one alpha (link latency) even for an empty delta, then
        scaled by any active ``delay`` fault and the shard's own
        ``slow_node`` factor — a gray failure slows one replica, not the
        whole fabric.
        """
        seconds = self.link.transfer_seconds(max(int(nbytes), 1))
        if self.faults is not None:
            seconds *= float(self.faults.delay_factor)
            slow = getattr(self.faults, "slow_factor", None)
            if slow is not None:
                seconds *= float(slow(shard_id))
        return seconds

    def _shard_delta_bytes(self, tables: list[str], since: int) -> dict[int, int]:
        """Approximate per-shard primary-range delta volume for modelling.

        A shard's log holds every replica copy it owns, so dividing its
        changed-row count by the replication factor approximates the
        primary-range share one resilient RPC actually carries.
        """
        store = self.store
        r = max(store.replication, 1)
        return {
            sid: (count * store.row_bytes) // r
            for sid, count in store.changed_rows(tables, since).items()
        }

    def _backup_read(
        self,
        sid: int,
        available: list[int],
        sent_s: float,
        nbytes: int,
    ) -> float | None:
        """Send ``sid``'s range to the healthiest reachable peer whose
        breaker admits a request at sim time ``sent_s``; returns that
        read's modelled latency, or None when no peer takes it."""
        policy = self.resilience
        for peer in policy.health.replica_order(
            [s for s in available if s != sid]
        ):
            if policy.breaker_for(peer).allow(sent_s):
                bcost = self._modelled_rpc_seconds(nbytes, peer)
                policy.health.record(peer, bcost, True)
                policy.breaker_for(peer).record_success(sent_s + bcost)
                return bcost
        return None

    def _wave(self, tables: list[str], since: int) -> _Coverage:
        """Coverage with a policy: a deadline-budgeted, breaker-guarded,
        hedged wave of modelled per-shard RPCs.

        Each round models one parallel wave on the sim clock: reachable
        primaries answer their own key ranges, slow ones get a hedged
        backup read, failed ones fail over to the healthiest peer, and
        anything still uncovered waits out a deterministic backoff and
        retries.  The pull is exact only if every range was answered, the
        available shards provably intersect every write quorum (or a clean
        primary vouches for its range), and the whole dance fit the
        deadline; a pull that is not is charged the full deadline.
        """
        policy = self.resilience
        store = self.store
        start_s = policy.clock.now()
        self._pull_seq += 1
        fail_fast_s = self.link.latency_ms / 1e3
        all_sids = store.shard_ids
        shard_bytes = self._shard_delta_bytes(tables, since)
        covered: dict[int, str] = {}  # sid -> "clean" | "recon"
        attempts = 0  # RPCs sent
        hedges = 0
        retries = 0
        t_now = 0.0
        available: list[int] = []
        for round_no in range(1, MAX_ATTEMPTS + 1):
            down = set(store.down_shard_ids)
            suspects = set(store.suspect_shard_ids(since))
            available = [sid for sid in all_sids if sid not in down]
            wave_end = t_now
            hedge_delay = policy.hedge_delay_s()
            for sid in all_sids:
                if sid in covered:
                    continue
                brk = policy.breaker_for(sid)
                t0 = t_now
                nbytes = shard_bytes.get(sid, 0)
                failed_s: float | None = None  # latency of a failed attempt
                if not brk.allow(start_s + t0):
                    fail_at = t0  # refused locally: no wire time spent
                elif sid in down:
                    failed_s = fail_fast_s
                else:
                    cost = self._modelled_rpc_seconds(nbytes, sid)
                    if cost > ATTEMPT_TIMEOUT_S:
                        failed_s = ATTEMPT_TIMEOUT_S
                    else:
                        attempts += 1
                        policy.health.record(
                            sid, cost, True, hedged=cost > hedge_delay
                        )
                        brk.record_success(start_s + t0 + cost)
                        done = t0 + cost
                        if cost > hedge_delay:
                            bcost = self._backup_read(
                                sid, available, start_s + t0 + hedge_delay, nbytes
                            )
                            if bcost is not None:
                                attempts += 1
                                hedges += 1
                                done = min(done, t0 + hedge_delay + bcost)
                        covered[sid] = "recon" if sid in suspects else "clean"
                        wave_end = max(wave_end, done)
                        continue
                if failed_s is not None:
                    fail_at = t0 + failed_s
                    attempts += 1
                    policy.health.record(sid, failed_s, False)
                    brk.record_failure(start_s + fail_at)
                # Failure path (breaker-refused, down, or timed out): fail
                # over to the healthiest reachable peer, which serves the
                # failed primary's range reconciled.
                bcost = self._backup_read(sid, available, start_s + fail_at, nbytes)
                if bcost is not None:
                    attempts += 1
                    covered[sid] = "recon"
                    wave_end = max(wave_end, fail_at + bcost)
                else:
                    wave_end = max(wave_end, fail_at)
            t_now = wave_end
            if len(covered) == len(all_sids):
                break
            if round_no >= MAX_ATTEMPTS:
                break
            backoff = backoff_s(round_no, key=self._pull_seq)
            if t_now + backoff >= DEADLINE_S:
                break
            t_now += backoff
            retries += 1
            self._advance_policy_clock(start_s + t_now)
        clean = [sid for sid in all_sids if covered.get(sid) == "clean"]
        recon = [sid for sid in all_sids if covered.get(sid) == "recon"]
        exact = (
            len(covered) == len(all_sids)
            and t_now <= DEADLINE_S
            and store.placement.coverage_ok(store.replication, available, clean)
        )
        seconds = t_now if exact else DEADLINE_S
        self._advance_policy_clock(start_s + seconds)
        return _Coverage(
            clean, recon, available, exact, seconds, attempts, hedges, retries
        )

    def _advance_policy_clock(self, target_s: float) -> None:
        """Move the policy's shared sim clock forward, never backward."""
        clock = self.resilience.clock
        if target_s > clock.now():
            clock.set(target_s)

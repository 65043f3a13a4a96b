"""Batched client sessions against the sharded parameter store.

A :class:`ShardClient` is what a training cluster or inference node holds
instead of a raw store reference: it *stages* publishes so a whole window's
tables flush as one version bump (version batching), issues batched
multi-table delta pulls against a single per-client sync point, and charges
every transfer through the alpha-beta cost model of
:mod:`repro.cluster.collectives` over a :class:`repro.cluster.network`
link — shard fan-out happens in parallel, so a transfer pays the link's
setup latency once plus bandwidth time for the total volume.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ...obs.metrics import registry as _obs_registry
from ..collectives import CollectiveCostModel
from ..network import GBE_100, NetworkLink
from ..resilience.budget import DeadlineBudget
from ..resilience.degraded import StaleRead
from ..resilience.errors import DegradedReadError
from ..resilience.policy import ResiliencePolicy
from .store import QuorumError, ShardedParameterStore

__all__ = ["ClientTransferReport", "ShardClient"]

_REG = _obs_registry()
_FLUSHES = _REG.counter(
    "shardstore.client.flushes", help="publish flush events (version bumps)"
)
_PULLS = _REG.counter(
    "shardstore.client.pulls", help="batched delta-pull round trips"
)
_ROWS_PUBLISHED = _REG.counter(
    "shardstore.client.rows_published", help="rows pushed through flushes"
)
_BYTES_PUBLISHED = _REG.counter(
    "shardstore.client.bytes_published",
    help="bytes pushed (alpha-beta accounting volume)",
)
_ROWS_PULLED = _REG.counter(
    "shardstore.client.rows_pulled", help="delta rows delivered to pullers"
)
_BYTES_PULLED = _REG.counter(
    "shardstore.client.bytes_pulled",
    help="bytes pulled (alpha-beta accounting volume)",
)
_TRANSFER_S = _REG.histogram(
    "shardstore.client.transfer_seconds",
    help="modelled per-transfer wall time (alpha-beta cost model)",
    lo=1e-6,
    hi=1e4,
)
_HEDGED = _REG.counter(
    "shardstore.client.hedged_reads",
    help="backup reads launched against slow primaries",
)
_RETRY = _REG.counter(
    "shardstore.client.retries",
    help="retry rounds (pull waves and flush re-publishes) after backoff",
)
_DEGRADED_READS = _REG.counter(
    "shardstore.client.degraded_reads",
    help="pulls answered from the bounded-staleness cache",
)
_BREAKERS_OPEN = _REG.gauge(
    "shardstore.client.breakers_open",
    help="per-replica circuit breakers currently open for this process",
)
_ATTEMPT_S = _REG.histogram(
    "shardstore.client.attempt_seconds",
    help="modelled latency of individual per-shard RPC attempts",
    lo=1e-6,
    hi=1e4,
)


@dataclass
class ClientTransferReport:
    """Accounting for one batched publish flush or delta pull.

    The resilience fields stay at their defaults on the legacy
    (non-resilient) path: ``outcome`` is ``"ok"``, ``"hedged"`` when at
    least one backup read fired, or ``"degraded"`` when the pull was
    answered from the bounded-staleness cache instead of the store.
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


class ShardClient:
    """One producer/consumer session against a :class:`ShardedParameterStore`.

    Parameters
    ----------
    store : ShardedParameterStore
        The shared parameter plane.
    link : repro.cluster.network.NetworkLink, optional
        Network path between this client and the store tier.
    contention : float, optional
        Fraction of the link consumed by competing traffic.
    tracer : repro.obs.trace.Tracer, optional
        When given, every flush/pull runs under a span and the modelled
        transfer seconds advance the tracer's clock (a ``SimClock`` in
        simulations, making traces deterministic; a no-op on wall
        clocks).  Counters in the process registry are fed either way.
    faults : repro.cluster.faults.FaultPlane, optional
        Fault-injection plane (anything with a ``delay_factor`` float
        attribute works).  Active ``delay`` faults multiply the modelled
        transfer seconds of every flush and pull through this client —
        a degraded network, not a dead one.  When the plane also exposes
        ``slow_factor``/``is_partitioned`` (a real ``FaultPlane``), the
        resilient pull path models gray failures per shard.
    resilience : repro.cluster.resilience.ResiliencePolicy, optional
        When given, pulls run the resilient read path — per-shard
        modelled RPCs under a deadline budget, circuit breakers, hedged
        backup reads, deterministic retry backoff, and bounded-staleness
        degraded serving when the replica set cannot answer — and
        flushes retry quorum refusals under the same backoff schedule.
        ``None`` keeps the legacy single-shot behaviour byte-for-byte.

    Notes
    -----
    A flush that fails its write quorum raises
    :class:`~repro.cluster.shardstore.store.QuorumError` with the staged
    batches *preserved*: the client retries the same :meth:`flush` after
    the fleet heals, and no acknowledged-looking publish is ever lost.

    The first delta pull registers this client's sync point with the
    store, which pins log compaction at or above it; call :meth:`close`
    when the client retires to release the pin.
    """

    def __init__(
        self,
        store: ShardedParameterStore,
        link: NetworkLink = GBE_100,
        contention: float = 0.0,
        tracer=None,
        faults=None,
        resilience: ResiliencePolicy | None = None,
    ) -> None:
        self.store = store
        self.link = link
        self.contention = contention
        self.tracer = tracer
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
        seconds = self.link.transfer_seconds(nbytes, contention=self.contention)
        if self.faults is not None:
            seconds *= float(self.faults.delay_factor)
        return seconds

    # --------------------------------------------------------------- publish
    @property
    def staged_rows(self) -> int:
        return sum(
            ids.size for parts in self._staged.values() for ids, _ in parts
        )

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
            policy's deterministic backoff (the ``on_wait`` hook lets a
            fault plane heal mid-flush); the error only escapes once the
            attempt budget is spent.  Publishes are idempotent across
            these retries: a quorum refusal happens *before* any version
            bump or row application, so re-flushing the same staged
            batches can neither lose an acked write nor double-apply one.
        """
        if self.resilience is None:
            return self._flush_traced()
        policy = self.resilience
        attempt = 1
        retries = 0
        while True:
            try:
                report = self._flush_traced()
            except QuorumError:
                if attempt >= policy.retry.max_attempts:
                    raise
                policy.wait(policy.retry.backoff_s(attempt, key=self._pull_seq))
                attempt += 1
                retries += 1
                continue
            report.attempts = attempt
            report.retries = retries
            if _REG.enabled and retries:
                _RETRY.add(retries)
            return report

    def _flush_traced(self) -> ClientTransferReport:
        if self.tracer is None:
            return self._flush()
        with self.tracer.span("shardstore.client.flush") as span:
            report = self._flush()
            span.attrs["version"] = report.version
            span.attrs["rows"] = report.rows
            span.attrs["bytes"] = report.bytes
            self.tracer.advance(report.seconds)
        return report

    def _flush(self) -> ClientTransferReport:
        if not self._staged:
            return ClientTransferReport(
                version=self.store.version, rows=0, bytes=0, seconds=0.0
            )
        batches = []
        total_rows = 0
        for table, parts in self._staged.items():
            ids = np.concatenate([p[0] for p in parts])
            rows = np.concatenate([p[1] for p in parts], axis=0)
            batches.append((table, ids, rows))
            total_rows += int(ids.size)
        version = self.store.publish_many(batches)
        self._staged.clear()
        nbytes = total_rows * self.store.row_bytes
        report = ClientTransferReport(
            version=version,
            rows=total_rows,
            bytes=nbytes,
            seconds=self.transfer_seconds(nbytes),
            tables=[t for t, _, _ in batches],
        )
        self.push_log.append(report)
        if _REG.enabled:
            _FLUSHES.inc()
            _ROWS_PUBLISHED.add(report.rows)
            _BYTES_PUBLISHED.add(report.bytes)
            _TRANSFER_S.observe(report.seconds)
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

    def close(self) -> None:
        """Retire this client: release its sync point so it stops pinning
        the store's compaction watermark.  Idempotent."""
        if self._sync_token is not None:
            self.store.unregister_sync_point(self._sync_token)
            self._sync_token = None

    def pull_tables(
        self,
        tables: list[str],
        row_filter: np.ndarray | None = None,
    ) -> tuple[dict[str, tuple[np.ndarray, np.ndarray]], ClientTransferReport]:
        """Batched delta pull for several tables since this client's sync point.

        Parameters
        ----------
        tables : list of str
            Tables to pull, all against the same sync point.
        row_filter : numpy.ndarray of int64, optional
            Keep only these row ids (an inference node pulls just its
            partition).

        Returns
        -------
        deltas : dict of str to (numpy.ndarray, numpy.ndarray)
            ``deltas[table] = (ids, rows)`` newer than the sync point.
        report : ClientTransferReport
            Transfer accounting; the sync point advances to the store's
            current version — one round-trip covers every table.
        """
        if self.tracer is None:
            return self._pull_tables(tables, row_filter)
        lag = self.staleness_versions()
        with self.tracer.span("shardstore.client.pull", lag=lag) as span:
            deltas, report = self._pull_tables(tables, row_filter)
            span.attrs["version"] = report.version
            span.attrs["rows"] = report.rows
            span.attrs["bytes"] = report.bytes
            self.tracer.advance(report.seconds)
        return deltas, report

    def _pull_tables(
        self,
        tables: list[str],
        row_filter: np.ndarray | None = None,
    ) -> tuple[dict[str, tuple[np.ndarray, np.ndarray]], ClientTransferReport]:
        if self.resilience is not None:
            return self._pull_tables_resilient(tables, row_filter)
        since = self.synced_version
        deltas: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        total_rows = 0
        for table in tables:
            ids, rows, _ = self.store.pull_delta(table, since)
            if row_filter is not None and ids.size:
                keep = np.isin(ids, row_filter)
                ids, rows = ids[keep], rows[keep]
            deltas[table] = (ids, rows)
            total_rows += int(ids.size)
        self.synced_version = self.store.version
        # Pullers pin compaction lazily, on first pull: a publish-only
        # client never registers, so it never holds the watermark back.
        if self._sync_token is None:
            self._sync_token = self.store.register_sync_point(
                self.synced_version
            )
        else:
            self.store.update_sync_point(self._sync_token, self.synced_version)
        nbytes = total_rows * self.store.row_bytes
        report = ClientTransferReport(
            version=self.synced_version,
            rows=total_rows,
            bytes=nbytes,
            seconds=self.transfer_seconds(nbytes),
            tables=list(tables),
        )
        self.pull_log.append(report)
        if _REG.enabled:
            _PULLS.inc()
            _ROWS_PULLED.add(report.rows)
            _BYTES_PULLED.add(report.bytes)
            _TRANSFER_S.observe(report.seconds)
        return deltas, report

    def pull_table(
        self, table: str, row_filter: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, ClientTransferReport]:
        """Single-table delta pull against the client sync point."""
        deltas, report = self.pull_tables([table], row_filter=row_filter)
        ids, rows = deltas[table]
        return ids, rows, report

    # ------------------------------------------------------- resilient reads
    def degraded_read(self, table: str) -> StaleRead:
        """Serve one table from the bounded-staleness cache, explicitly.

        The rows are exact as of this client's last successful sync; the
        returned :class:`~repro.cluster.resilience.degraded.StaleRead`
        carries ``degraded=True``, the sync point, and per-row version
        lag so consumers account for staleness instead of guessing.
        """
        if self.resilience is None or self.resilience.degraded is None:
            raise ValueError("client has no degraded-read cache configured")
        return self.resilience.degraded.serve(
            table, current_version=self.store.version
        )

    def _modelled_rpc_seconds(self, nbytes: int, shard_id: int) -> float:
        """Modelled latency of one per-shard RPC carrying ``nbytes``.

        At least one alpha (link latency) even for an empty delta, then
        scaled by any active ``delay`` fault and the shard's own
        ``slow_node`` factor — a gray failure slows one replica, not the
        whole fabric.
        """
        seconds = self.link.transfer_seconds(
            max(int(nbytes), 1), contention=self.contention
        )
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
        out: dict[int, int] = {}
        r = max(store.replication, 1)
        for sid in store.shard_ids:
            shard = store.shards[sid]
            count = 0
            for table in tables:
                count += shard.changed_count(table, since)
            out[sid] = (count * store.row_bytes) // r
        return out

    def _pick_backup(self, sid: int, available: list[int], now_abs: float) -> int | None:
        """Healthiest reachable peer whose breaker admits a request."""
        policy = self.resilience
        for peer in policy.health.replica_order(
            [s for s in available if s != sid]
        ):
            if policy.breaker_for(peer).allow(now_abs):
                return peer
        return None

    def _pull_tables_resilient(
        self,
        tables: list[str],
        row_filter: np.ndarray | None = None,
    ) -> tuple[dict[str, tuple[np.ndarray, np.ndarray]], ClientTransferReport]:
        """Deadline-budgeted, breaker-guarded, hedged multi-shard pull.

        Each round models one parallel wave of per-shard RPCs on the sim
        clock: reachable primaries answer their own key ranges, slow ones
        get a hedged backup read, failed ones fail over to the healthiest
        peer, and anything still uncovered waits out a deterministic
        backoff (during which the fault plane may heal) and retries.  The
        pull is *exact* only if every range was answered, the available
        shards provably intersect every write quorum (or a clean primary
        vouches for its range), and the whole dance fit the deadline —
        otherwise it degrades: the sync point does NOT advance, and the
        caller is told, loudly, via ``degraded=True``.
        """
        policy = self.resilience
        store = self.store
        since = self.synced_version
        budget = DeadlineBudget(policy.deadline_s)
        start_s = policy.clock.now()
        self._pull_seq += 1
        fail_fast_s = self.link.latency_ms / 1e3
        all_sids = store.shard_ids
        shard_bytes = self._shard_delta_bytes(tables, since)
        covered: dict[int, str] = {}  # sid -> "clean" | "recon"
        attempt_lat: list[float] = []
        attempts = 0
        hedges = 0
        retries = 0
        t_now = 0.0
        available: list[int] = []
        part_of = getattr(self.faults, "is_partitioned", None)
        for round_no in range(1, policy.retry.max_attempts + 1):
            down = set(store.down_shard_ids)
            parted = set()
            if part_of is not None:
                parted = {sid for sid in all_sids if part_of(sid)}
            suspects = set(store.suspect_shard_ids(since))
            available = [
                sid for sid in all_sids
                if sid not in down and sid not in parted
            ]
            wave_end = t_now
            hedge_delay = policy.hedge.hedge_delay_s(policy.health)
            for sid in all_sids:
                if sid in covered:
                    continue
                brk = policy.breaker_for(sid)
                t0 = t_now
                nbytes = shard_bytes.get(sid, 0)
                fail_at: float | None = None
                if not brk.allow(start_s + t0):
                    fail_at = t0  # refused locally: no wire time spent
                elif sid in down:
                    fail_at = t0 + fail_fast_s
                    attempts += 1
                    attempt_lat.append(fail_fast_s)
                    policy.health.record(sid, fail_fast_s, False)
                    brk.record_failure(start_s + fail_at)
                elif sid in parted:
                    timeout = min(
                        policy.attempt_timeout_s,
                        max(budget.total_s - t0, fail_fast_s),
                    )
                    fail_at = t0 + timeout
                    attempts += 1
                    attempt_lat.append(timeout)
                    policy.health.record(sid, timeout, False)
                    brk.record_failure(start_s + fail_at)
                else:
                    cost = self._modelled_rpc_seconds(nbytes, sid)
                    if cost > policy.attempt_timeout_s:
                        fail_at = t0 + policy.attempt_timeout_s
                        attempts += 1
                        attempt_lat.append(policy.attempt_timeout_s)
                        policy.health.record(sid, policy.attempt_timeout_s, False)
                        brk.record_failure(start_s + fail_at)
                    else:
                        attempts += 1
                        attempt_lat.append(cost)
                        policy.health.record(
                            sid, cost, True, hedged=cost > hedge_delay
                        )
                        brk.record_success(start_s + t0 + cost)
                        done = t0 + cost
                        if cost > hedge_delay:
                            backup = self._pick_backup(
                                sid, available, start_s + t0 + hedge_delay
                            )
                            if backup is not None:
                                bcost = self._modelled_rpc_seconds(
                                    nbytes, backup
                                )
                                hedges += 1
                                attempts += 1
                                attempt_lat.append(bcost)
                                policy.health.record(backup, bcost, True)
                                policy.breaker_for(backup).record_success(
                                    start_s + t0 + hedge_delay + bcost
                                )
                                done = min(done, t0 + hedge_delay + bcost)
                        covered[sid] = (
                            "recon" if sid in suspects else "clean"
                        )
                        wave_end = max(wave_end, done)
                        continue
                # Failure path (breaker-refused, down, partitioned, or
                # timed out): fail over to the healthiest reachable peer,
                # which serves the failed primary's range reconciled.
                backup = self._pick_backup(sid, available, start_s + fail_at)
                if backup is not None:
                    bcost = self._modelled_rpc_seconds(nbytes, backup)
                    attempts += 1
                    attempt_lat.append(bcost)
                    policy.health.record(backup, bcost, True)
                    policy.breaker_for(backup).record_success(
                        start_s + fail_at + bcost
                    )
                    covered[sid] = "recon"
                    wave_end = max(wave_end, fail_at + bcost)
                else:
                    wave_end = max(wave_end, fail_at)
            t_now = wave_end
            if all(sid in covered for sid in all_sids):
                break
            if round_no >= policy.retry.max_attempts:
                break
            backoff = policy.retry.backoff_s(round_no, key=self._pull_seq)
            if t_now + backoff >= budget.total_s:
                break
            t_now += backoff
            retries += 1
            self._advance_policy_clock(start_s + t_now)
            if policy.on_wait is not None:
                policy.on_wait(policy.clock.now())
        clean_ids = [sid for sid in all_sids if covered.get(sid) == "clean"]
        exact = (
            all(sid in covered for sid in all_sids)
            and t_now <= budget.total_s
            and store.placement.coverage_ok(
                store.replication, available, clean_ids
            )
        )
        if not exact:
            return self._degraded_result(
                tables, since, budget, start_s, attempts, hedges, retries,
                attempt_lat,
            )
        recon_ids = [sid for sid in all_sids if covered.get(sid) == "recon"]
        deltas: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        total_rows = 0
        for table in tables:
            # Primaries own disjoint key sets; empty parts keep the
            # table's width, so they merge without special-casing.
            parts = [
                store.pull_delta_primary(table, since, sid)
                for sid in clean_ids
            ]
            parts.append(
                store.pull_delta_ranges(table, since, recon_ids, available)
            )
            ids, rows, versions = store._merge_disjoint(parts)
            if row_filter is not None and ids.size:
                keep = np.isin(ids, row_filter)
                ids, rows, versions = ids[keep], rows[keep], versions[keep]
            deltas[table] = (ids, rows)
            total_rows += int(ids.size)
            if policy.degraded is not None:
                policy.degraded.update(
                    table, ids, rows, versions, store.version
                )
        self.synced_version = store.version
        if self._sync_token is None:
            self._sync_token = self.store.register_sync_point(
                self.synced_version
            )
        else:
            self.store.update_sync_point(self._sync_token, self.synced_version)
        nbytes = total_rows * store.row_bytes
        report = ClientTransferReport(
            version=self.synced_version,
            rows=total_rows,
            bytes=nbytes,
            seconds=t_now,
            tables=list(tables),
            outcome="hedged" if hedges else "ok",
            attempts=attempts,
            hedges=hedges,
            retries=retries,
        )
        self.pull_log.append(report)
        self._advance_policy_clock(start_s + t_now)
        self._record_pull_metrics(report, attempt_lat)
        return deltas, report

    def _degraded_result(
        self,
        tables: list[str],
        since: int,
        budget: DeadlineBudget,
        start_s: float,
        attempts: int,
        hedges: int,
        retries: int,
        attempt_lat: list[float],
    ) -> tuple[dict[str, tuple[np.ndarray, np.ndarray]], ClientTransferReport]:
        """Close out a pull the replica set could not answer exactly.

        The sync point does NOT advance (nothing was read exactly, so
        claiming progress would silently skip acked publishes on the next
        pull), the full deadline is charged, and the caller either gets
        empty deltas flagged ``degraded=True`` (serve staleness via
        :meth:`degraded_read`) or — with no degraded cache configured — a
        typed :class:`DegradedReadError`.
        """
        policy = self.resilience
        store = self.store
        self._advance_policy_clock(start_s + budget.total_s)
        report = ClientTransferReport(
            version=since,
            rows=0,
            bytes=0,
            seconds=budget.total_s,
            tables=list(tables),
            outcome="degraded",
            degraded=True,
            attempts=attempts,
            hedges=hedges,
            retries=retries,
        )
        self.pull_log.append(report)
        self._record_pull_metrics(report, attempt_lat)
        if policy.degraded is None:
            raise DegradedReadError(list(tables), since, store.version)
        return {table: store.empty_delta(table)[:2] for table in tables}, report

    def _advance_policy_clock(self, target_s: float) -> None:
        """Move the policy's shared sim clock forward, never backward."""
        clock = self.resilience.clock
        if target_s > clock.now():
            clock.set(target_s)

    def _record_pull_metrics(
        self, report: ClientTransferReport, attempt_lat: list[float]
    ) -> None:
        """Batched obs-plane accounting for one resilient pull."""
        if not _REG.enabled:
            return
        policy = self.resilience
        _PULLS.inc()
        _ROWS_PULLED.add(report.rows)
        _BYTES_PULLED.add(report.bytes)
        _TRANSFER_S.observe(report.seconds)
        _HEDGED.add(report.hedges)
        _RETRY.add(report.retries)
        if report.degraded:
            _DEGRADED_READS.inc()
        _ATTEMPT_S.observe_many(np.asarray(attempt_lat, dtype=np.float64))
        _BREAKERS_OPEN.set(policy.open_breakers(policy.clock.now()))

"""Deterministic chaos-testing helpers for the replicated parameter plane.

The property the replication protocol sells is narrow and checkable:

    While every row keeps a write quorum of live replicas, **no
    acknowledged publish is ever lost**, and after revive + repair all
    replicas are **byte-identical**.

This module provides the machinery the chaos suites assert it with: a
seeded :func:`random_schedule` of kill/revive/drop/delay faults, an
:class:`AckedLedger` that mirrors exactly what the store acknowledged
(refused publishes — :class:`~repro.cluster.shardstore.QuorumError` —
record nothing, like a client whose flush failed), a seeded
:func:`run_chaos_schedule` loop that interleaves fault injection with
publishes, and the two invariant asserts.  Everything is driven by a
single seed: a failing schedule replays bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from reference.replication import check_replica_convergence, pull_rows
from repro.cluster.faults import FaultEvent, FaultPlane, FaultSchedule
from repro.cluster.shardstore import QuorumError, ShardedParameterStore

__all__ = [
    "AckedLedger",
    "random_schedule",
    "run_chaos_schedule",
    "assert_no_acked_loss",
    "assert_converged",
    "quiesce",
]


def random_schedule(
    seed: int,
    shard_ids: list[int],
    horizon_s: float = 60.0,
    kills: int = 2,
    drops: int = 2,
    delays: int = 1,
    max_concurrent_down: int = 1,
    outage_s: float = 5.0,
) -> FaultSchedule:
    """Seeded random schedule: same seed, same faults, every run.

    Each kill is paired with a revive ``outage_s`` later, and kills
    are spread so at most ``max_concurrent_down`` shards are ever
    down at once — chaos suites pick ``max_concurrent_down`` below
    the store's quorum slack so every publish must still succeed,
    turning "no acked loss" into an assertable invariant.

    Parameters
    ----------
    seed : int
        Generator seed; the only source of randomness.
    shard_ids : list of int
        Shards eligible for faults.
    horizon_s : float, optional
        Events land in ``[0, horizon_s)``.
    kills : int, optional
        Kill/revive pairs to schedule.
    drops : int, optional
        ``drop_publish`` events to schedule.
    delays : int, optional
        ``delay`` events (each paired with a reset to 1.0).
    max_concurrent_down : int, optional
        Upper bound on simultaneously-down shards.
    outage_s : float, optional
        Kill-to-revive gap.
    """
    if not shard_ids:
        raise ValueError("need at least one shard id")
    if max_concurrent_down < 1:
        raise ValueError("max_concurrent_down must be >= 1")
    rng = np.random.default_rng(seed)
    events: list[FaultEvent] = []
    # Kills start on a per-lane cadence: lane k's outages are disjoint
    # in time, and with `max_concurrent_down` lanes no more than that
    # many shards are down together.
    lane_span = outage_s * 2.0
    for i in range(kills):
        cycle = i // max_concurrent_down
        base = cycle * lane_span
        if base + outage_s >= horizon_s:
            break
        start = base + float(rng.uniform(0.0, outage_s))
        sid = int(shard_ids[int(rng.integers(len(shard_ids)))])
        events.append(FaultEvent(start, "kill", sid))
        events.append(
            FaultEvent(min(start + outage_s, horizon_s), "revive", sid)
        )
    for _ in range(drops):
        at = float(rng.uniform(0.0, horizon_s))
        sid = int(shard_ids[int(rng.integers(len(shard_ids)))])
        events.append(FaultEvent(at, "drop_publish", sid))
    for _ in range(delays):
        at = float(rng.uniform(0.0, horizon_s * 0.8))
        factor = float(rng.uniform(1.5, 4.0))
        events.append(FaultEvent(at, "delay", factor=factor))
        events.append(
            FaultEvent(
                min(at + outage_s, horizon_s), "delay", factor=1.0
            )
        )
    schedule = FaultSchedule(events)
    schedule.events = _enforce_lanes(schedule.events, max_concurrent_down)
    return schedule


def _enforce_lanes(
    events: list[FaultEvent], max_concurrent_down: int
) -> list[FaultEvent]:
    """Drop kill/revive pairs that would exceed the concurrency bound
    or double-kill an already-down shard (random draws can collide)."""
    down: set[int] = set()
    dropped: set[int] = set()
    kept: list[FaultEvent] = []
    for i, event in enumerate(events):
        if event.kind == "kill":
            sid = event.shard_id
            if sid in down or len(down) >= max_concurrent_down:
                dropped.add(i)
                # also drop this kill's paired revive (the next revive
                # of the same shard while it isn't actually down)
                for j in range(i + 1, len(events)):
                    later = events[j]
                    if (
                        later.kind == "revive"
                        and later.shard_id == sid
                        and j not in dropped
                    ):
                        dropped.add(j)
                        break
                continue
            down.add(sid)
            kept.append(event)
        elif event.kind == "revive":
            if i in dropped:
                continue
            if event.shard_id not in down:
                dropped.add(i)
                continue
            down.discard(event.shard_id)
            kept.append(event)
        else:
            kept.append(event)
    return kept


class AckedLedger:
    """Client-side mirror of every row the store *acknowledged*.

    Mimics the store's write semantics (duplicate ids within one publish
    resolve to the last occurrence), so after any run the ledger holds,
    per table and id, exactly the payload a correct store must serve.
    """

    def __init__(self) -> None:
        self.tables: dict[str, dict[int, np.ndarray]] = {}
        self.acked_publishes = 0
        self.refused_publishes = 0

    def record(self, table: str, ids: np.ndarray, rows: np.ndarray) -> None:
        """Fold one acknowledged publish in (last duplicate wins)."""
        rows_of = self.tables.setdefault(table, {})
        for i, rid in enumerate(ids.tolist()):
            rows_of[int(rid)] = rows[i].copy()
        self.acked_publishes += 1

    def expected(self, table: str) -> tuple[np.ndarray, np.ndarray]:
        """``(ids, rows)`` the store must serve for ``table``, id-sorted."""
        rows_of = self.tables.get(table, {})
        if not rows_of:
            return np.empty(0, dtype=np.int64), np.zeros((0, 1))
        ids = np.array(sorted(rows_of), dtype=np.int64)
        rows = np.stack([rows_of[int(i)] for i in ids])
        return ids, rows


def assert_no_acked_loss(
    store: ShardedParameterStore, ledger: AckedLedger
) -> None:
    """Every acknowledged row must be readable at its acknowledged value.

    Valid at *any* point of a schedule that respects the quorum bound —
    including while shards are down — because reads fail over to the
    freshest live replica.
    """
    for table in ledger.tables:
        want_ids, want_rows = ledger.expected(table)
        if want_ids.size == 0:
            continue
        found, got = pull_rows(store, table, want_ids)
        missing = want_ids[~found]
        assert found.all(), (
            f"{missing.size} acknowledged rows unreadable in {table!r}: "
            f"ids {missing[:10].tolist()}..."
        )
        np.testing.assert_array_equal(
            got,
            want_rows.astype(got.dtype),
            err_msg=f"acknowledged payloads diverged in {table!r}",
        )


def assert_converged(store: ShardedParameterStore) -> None:
    """All live replicas hold byte-identical, correctly versioned copies."""
    report = check_replica_convergence(store)
    assert report.converged, report.summary


def quiesce(store: ShardedParameterStore, plane: FaultPlane) -> None:
    """Drain the schedule, revive everything, repair: the healed end-state
    every chaos run converges to before its final asserts."""
    if plane.schedule.events:
        plane.advance_to(plane.schedule.events[-1].at_s)
    for sid in list(store.down_shard_ids):
        store.revive_shard(sid)
    store.repair()


def run_chaos_schedule(
    store: ShardedParameterStore,
    schedule: FaultSchedule,
    seed: int,
    windows: int = 40,
    window_s: float = 1.0,
    rows_per_window: int = 200,
    id_space: int = 5000,
    tables: tuple[str, ...] = ("emb",),
    dim: int = 4,
    check_every_window: bool = True,
) -> tuple[AckedLedger, FaultPlane]:
    """Interleave seeded publishes with a fault schedule.

    One window = inject everything due, then attempt one multi-table
    publish.  A :class:`QuorumError` records nothing (the store wrote
    nothing) — that is the protocol refusing loudly instead of losing
    quietly.  With ``check_every_window`` the no-acked-loss invariant is
    asserted after *every* window, i.e. also mid-outage.

    Returns the ledger and the fault plane (for post-run quiesce).
    """
    rng = np.random.default_rng(seed)
    plane = FaultPlane(store, schedule)
    ledger = AckedLedger()
    now = 0.0
    for _ in range(windows):
        now += window_s
        plane.advance_to(now)
        batches = []
        for table in tables:
            ids = rng.integers(0, id_space, size=rows_per_window)
            rows = rng.normal(size=(ids.size, dim))
            batches.append((table, ids, rows))
        try:
            store.publish_many(batches)
        except QuorumError:
            ledger.refused_publishes += 1
            continue
        for table, ids, rows in batches:
            ledger.record(table, ids, rows)
        if check_every_window:
            assert_no_acked_loss(store, ledger)
    return ledger, plane

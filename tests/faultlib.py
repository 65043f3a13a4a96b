"""Deterministic chaos-testing helpers for the replicated parameter plane.

The property the replication protocol sells is narrow and checkable:

    While every row keeps a write quorum of live replicas, **no
    acknowledged publish is ever lost**, and after revive + repair all
    replicas are **byte-identical**.

This module provides the machinery the chaos suites assert it with: an
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
from repro.cluster.faults import FaultPlane, FaultSchedule
from repro.cluster.shardstore import QuorumError, ShardedParameterStore

__all__ = [
    "AckedLedger",
    "run_chaos_schedule",
    "assert_no_acked_loss",
    "assert_converged",
    "quiesce",
]


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

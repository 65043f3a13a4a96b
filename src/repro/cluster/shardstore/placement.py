"""Deterministic shard placement for the parameter plane.

A ``(table, row_id)`` key must land on the same shard in every process of
the fleet — trainers publish from one process, inference nodes pull from
dozens of others — so placement can never touch the salted builtin
``hash()``.  Keys are folded to a stable 64-bit routing key with
:func:`repro.core.kernels.splitmix64` / :func:`hash_combine` and placed on
the *same consistent-hash ring implementation the request router uses*
(:class:`repro.serving.router.ConsistentHashRouter` over shard ids), so the
parameter plane inherits the ring's properties for free: smooth key-range
splits via virtual nodes, and minimal remapping when shards are added or
removed.
"""

from __future__ import annotations

import numpy as np

from ...core.kernels import hash_combine, stable_str_hash
from ...serving.router import ConsistentHashRouter

__all__ = ["stable_table_hash", "ShardPlacement"]

# Salt separating parameter-plane key hashing from request routing: the
# same row id used as a routing key elsewhere must not correlate with its
# shard placement.
_PLACEMENT_SEED = 0x5A17D570

#: Table names hash through the shared kernel-layer string hash.
stable_table_hash = stable_str_hash


class ShardPlacement:
    """Key -> shard mapping over a consistent-hash ring of shard ids.

    Parameters
    ----------
    shard_ids : list of int
        The shards currently in the store.
    """

    def __init__(self, shard_ids: list[int]) -> None:
        self._router = ConsistentHashRouter(list(shard_ids))
        self.shard_ids = list(self._router.node_ids)
        self._table_hashes: dict[str, int] = {}
        # A placement never changes after construction (membership changes
        # build a new one), so coverage depends only on which shards are
        # available and clean: at most 3^N answers per ``r``.
        self._coverage: dict[tuple[int, frozenset, frozenset], bool] = {}

    @property
    def num_shards(self) -> int:
        return len(self.shard_ids)

    # ------------------------------------------------------------------ keys
    def _table_hash(self, table: str) -> int:
        cached = self._table_hashes.get(table)
        if cached is None:
            cached = self._table_hashes[table] = stable_table_hash(table)
        return cached

    def key_hashes(self, table: str, row_ids: np.ndarray) -> np.ndarray:
        """Stable 64-bit routing key per ``(table, row_id)``.

        Parameters
        ----------
        table : str
            Table name; folded through the kernel-layer string hash.
        row_ids : numpy.ndarray of int64
            Row ids within the table.

        Returns
        -------
        numpy.ndarray of uint64
            One placement key per row, byte-identical in every process.
        """
        row_ids = np.asarray(row_ids, dtype=np.int64)
        return hash_combine(
            row_ids, np.uint64(self._table_hash(table)), _PLACEMENT_SEED
        )

    def replica_owners(
        self, table: str, row_ids: np.ndarray, r: int
    ) -> np.ndarray:
        """The ``r`` distinct shards owning each row, primary first.

        Replication rides the same ring as placement: a key's replica set
        is the next ``r`` distinct shards clockwise from its ring
        position, so column 0 is the key's ring owner (its primary) and
        adding or removing a shard disturbs only the replica sets whose
        ring ranges actually changed hands.  Byte-identical in every
        process (pinned by cross-PYTHONHASHSEED tests).

        Parameters
        ----------
        table : str
            Table name.
        row_ids : numpy.ndarray of int64
            Row ids to place.
        r : int
            Replica count; must not exceed the shard count.

        Returns
        -------
        numpy.ndarray of int64
            ``(len(row_ids), r)`` owning shard ids, primary in column 0.
        """
        if not 1 <= r <= self.num_shards:
            raise ValueError(
                f"replication {r} must be in [1, {self.num_shards}]"
            )
        return self._router.replica_assign(self.key_hashes(table, row_ids), r)

    def coverage_ok(
        self,
        r: int,
        available_ids: list[int],
        clean_primary_ids: list[int] | tuple[int, ...] = (),
    ) -> bool:
        """Whether the available shards can answer an *exact* read.

        With write quorum ``w = r // 2 + 1``, a read provably intersects
        every acknowledged write quorum when at least ``min_live = r - w
        + 1`` of each key's ``r`` owners are reachable.  A ring slot that
        misses that bar is still fine if its *primary* is in
        ``clean_primary_ids`` — a live shard whose missed-version ledger
        has no entries past the reader's sync point holds provably
        current rows for everything it owns.

        A clean primary that is also available never changes the answer:
        on a successor ring every failing slot has a later failing slot
        whose primary is down (pinned over every placement of 3-6 shards
        in ``tests/test_shardstore.py``).  The term matters only for a
        clean shard *outside* ``available_ids`` — the resilient client's
        wave accumulates clean answers over retry rounds while
        ``available_ids`` is the last round's.  The check runs over every
        ring slot at once via the router's successor-owner table, so it
        is key-independent: True means *any* read at this moment is
        exact.  Each answer is memoised per ``(r, available, clean)``.

        Parameters
        ----------
        r : int
            The store's replication factor.
        available_ids : list of int
            Shards currently reachable (live and not partitioned away).
        clean_primary_ids : sequence of int, optional
            Reachable shards additionally known to be current for the
            reader (empty missed-ledger overlap).

        Returns
        -------
        bool
            True when every ring slot is readable exactly.
        """
        if not 1 <= r <= self.num_shards:
            raise ValueError(
                f"replication {r} must be in [1, {self.num_shards}]"
            )
        avail = frozenset(int(s) for s in available_ids)
        clean = frozenset(int(s) for s in clean_primary_ids)
        key = (r, avail, clean)
        answer = self._coverage.get(key)
        if answer is None:
            owners = self._router.replica_owner_table(r)
            min_live = r - (r // 2 + 1) + 1
            live = np.isin(owners, np.fromiter(avail, dtype=np.int64))
            ok = live.sum(axis=1) >= min_live
            if clean:
                ok |= np.isin(owners[:, 0], np.fromiter(clean, dtype=np.int64))
            answer = self._coverage[key] = bool(ok.all())
        return answer

    # ----------------------------------------------------------- membership
    def with_shard_added(self, shard_id: int) -> "ShardPlacement":
        if shard_id in self.shard_ids:
            raise ValueError(f"shard {shard_id} already placed")
        return ShardPlacement(self.shard_ids + [shard_id])

    def with_shard_removed(self, shard_id: int) -> "ShardPlacement":
        if shard_id not in self.shard_ids:
            raise ValueError(f"shard {shard_id} not placed")
        if len(self.shard_ids) == 1:
            raise ValueError("cannot remove the last shard")
        remaining = [s for s in self.shard_ids if s != shard_id]
        return ShardPlacement(remaining)

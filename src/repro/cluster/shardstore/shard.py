"""One shard of the parameter plane: array-native rows + delta log.

Each shard stores its tables as dense row blocks — an
:class:`repro.core.kernels.IdSlotTable` maps row ids to slots in a
``(capacity, dim)`` float array with a parallel ``int64`` version vector —
and keeps an append-only *delta log* of ``(version, row_id)`` entries.
Because versions only ever grow, the log stays sorted by construction and
``pull_delta(since)`` is a ``searchsorted`` plus a slice over exactly the
entries newer than ``since``: O(changed rows), never a scan of the world.
The log idiom follows the low-rank delta-update storage of git-theta
(checkpoint-vcs): persist what changed per version, reconstruct any
read-point by slicing, and compact losslessly by keeping the latest entry
per id.

Every resident row also carries a *primary bit*, written with the row: set
on the replica that is rank 0 of the row's owner list.  A primary-range
read is then the log slice plus a boolean gather — no re-hashing of ids
through the placement ring.  :meth:`_TableBlock.delta` is the one delta
read; it memoises the slices of its last sync point until the block next
mutates, so every reader at that sync point shares one set of (read-only)
arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...core.kernels import IdSlotTable

__all__ = ["DeltaSlice", "ShardStats", "ParameterShard"]

#: ``(ids, rows, versions)`` of one delta read: ids ascending, the rows'
#: current payloads, and the store version each was last written at.
DeltaSlice = tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass
class ShardStats:
    """Write/read accounting for one shard."""

    rows_written: int = 0
    rows_read: int = 0
    bytes_written: int = 0
    bytes_read: int = 0


class _TableBlock:
    """Rows of one table resident on one shard.

    ``dtype`` is the store's row lane (float32 unless a caller asks for
    float64 explicitly).
    """

    def __init__(self, dim: int, dtype, capacity: int = 64) -> None:
        self.dim = dim
        self.capacity = capacity
        self.dtype = np.dtype(dtype)
        self.slots = IdSlotTable(capacity)
        self.rows = np.zeros((capacity, dim), dtype=self.dtype)
        self.row_version = np.zeros(capacity, dtype=np.int64)
        # True where this shard is rank 0 of the row's replica owners.
        self.primary = np.zeros(capacity, dtype=bool)
        # Append-only (version, id) log, sorted by version by construction.
        self._log_versions = np.empty(64, dtype=np.int64)
        self._log_ids = np.empty(64, dtype=np.int64)
        self._log_len = 0
        # Versions at or below the floor have been truncated out of the
        # log (watermark compaction); older sync points fall back to an
        # exact resident-table scan over ``row_version``.
        self.log_floor = 0
        # Slices of the last sync point read, valid until the next mutation:
        # None -> (ids, slots), primary_only -> (ids, rows, versions).
        self._memo_since = 0
        self._memo: dict[bool | None, tuple[np.ndarray, ...]] = {}

    # -------------------------------------------------------------- geometry
    @property
    def num_rows(self) -> int:
        return self.slots.size

    @property
    def resident_ids(self) -> np.ndarray:
        """Ids stored in this block, ascending."""
        return self.slots.keys

    @property
    def log_len(self) -> int:
        return self._log_len

    def rewiden(self, dim: int) -> None:
        """Grow the row width; existing rows zero-pad on the right."""
        if dim <= self.dim:
            return
        wider = np.zeros((self.capacity, dim), dtype=self.dtype)
        wider[:, : self.dim] = self.rows
        self.rows = wider
        self.dim = dim
        self._memo.clear()

    def _grow_block(self, need: int) -> None:
        """Double the row block, repacking slots to ``0..n-1`` in key order."""
        keys = self.slots.keys
        old_slots = self.slots.lookup(keys)
        new_capacity = max(self.capacity * 2, self.slots.size + need)
        new_rows = np.zeros((new_capacity, self.dim), dtype=self.dtype)
        new_versions = np.zeros(new_capacity, dtype=np.int64)
        new_primary = np.zeros(new_capacity, dtype=bool)
        new_rows[: keys.size] = self.rows[old_slots]
        new_versions[: keys.size] = self.row_version[old_slots]
        new_primary[: keys.size] = self.primary[old_slots]
        self.slots.rebuild_sorted(keys, new_capacity)
        self.rows = new_rows
        self.row_version = new_versions
        self.primary = new_primary
        self.capacity = new_capacity

    def _ensure_slots(self, ids: np.ndarray) -> np.ndarray:
        slots, _ = self.slots.insert(ids)
        if (slots < 0).any():
            self._grow_block(int((slots < 0).sum()))
            slots, _ = self.slots.insert(ids)
        return slots

    def _log_append(self, version: int, ids: np.ndarray) -> None:
        n = ids.size
        if self._log_len + n > self._log_versions.size:
            new_size = max(self._log_versions.size * 2, self._log_len + n)
            self._log_versions = np.resize(self._log_versions, new_size)
            self._log_ids = np.resize(self._log_ids, new_size)
        self._log_versions[self._log_len : self._log_len + n] = version
        self._log_ids[self._log_len : self._log_len + n] = ids
        self._log_len += n

    # ---------------------------------------------------------------- writes
    def publish(
        self, ids: np.ndarray, rows: np.ndarray, version: int, primary: np.ndarray
    ) -> int:
        """Write unique, sorted ``ids`` at ``version``.

        Parameters
        ----------
        ids : numpy.ndarray of int64
            Row ids, unique and ascending (the store partitions and
            dedupes before calling).
        rows : numpy.ndarray
            ``(len(ids), dim)`` payloads.
        version : int
            Version stamped on the rows and appended to the delta log.
        primary : numpy.ndarray of bool
            Per row, whether this shard is rank 0 of its replica owners.

        Returns
        -------
        int
            Rows written.
        """
        slots = self._ensure_slots(ids)
        self.rows[slots] = rows
        self.row_version[slots] = version
        self.primary[slots] = primary
        self._log_append(version, ids)
        self._memo.clear()
        return int(ids.size)

    def ingest(
        self,
        ids: np.ndarray,
        rows: np.ndarray,
        versions: np.ndarray,
        primary: np.ndarray,
    ) -> None:
        """Adopt rows migrated from another shard, preserving their versions.

        Incoming log entries interleave with resident ones, so the merged
        log is re-sorted by version (stable) to keep the slice invariant.
        """
        slots = self._ensure_slots(ids)
        self.rows[slots] = rows
        self.row_version[slots] = versions
        self.primary[slots] = primary
        self._memo.clear()
        before = self._log_len
        self._log_append(0, ids)  # placeholder versions, overwritten next
        self._log_versions[before : self._log_len] = versions
        # Exports arrive in id order, so the appended segment (and its seam
        # with resident entries) may be version-unsorted; restore the
        # sorted-by-version invariant the delta slice relies on.
        merged = self._log_versions[: self._log_len]
        if np.any(np.diff(merged) < 0):
            order = np.argsort(merged, kind="stable")
            self._log_versions[: self._log_len] = merged[order]
            self._log_ids[: self._log_len] = self._log_ids[: self._log_len][order]

    def retag_primary(self, ids: np.ndarray, primary: np.ndarray) -> None:
        """Rewrite the primary bit of resident ``ids`` (the ring changed)."""
        self.primary[self.slots.lookup_present(ids)] = primary
        self._memo.clear()

    def drop(self, ids: np.ndarray) -> DeltaSlice:
        """Evict rows for shard rebalancing.

        Parameters
        ----------
        ids : numpy.ndarray of int64
            Candidate ids; absent ones are ignored.

        Returns
        -------
        ids, rows, versions : numpy.ndarray
            The evicted ids with their payloads and row versions, ready
            for :meth:`ingest` on the new owner (delta semantics intact).
        """
        ids = np.asarray(ids, dtype=np.int64)
        slots = self.slots.lookup(ids)
        present = slots >= 0
        ids, slots = ids[present], slots[present]
        out_rows = self.rows[slots].copy()
        out_versions = self.row_version[slots].copy()
        self.slots.remove(ids)
        self._memo.clear()
        keep = ~np.isin(self._log_ids[: self._log_len], ids)
        kept = int(keep.sum())
        self._log_versions[:kept] = self._log_versions[: self._log_len][keep]
        self._log_ids[:kept] = self._log_ids[: self._log_len][keep]
        self._log_len = kept
        return ids, out_rows, out_versions

    def compact(self, watermark: int | None = None) -> int:
        """Shrink the delta log; returns entries dropped.

        Always keeps at most the latest entry per id — lossless for the
        delta protocol, since ``pull_delta(since)`` returns the ids whose
        *latest* version exceeds ``since``.  When ``watermark`` is given,
        entries whose id's latest version is at or below it are dropped
        entirely (the log *truncates*): every registered reader has a sync
        point at or above the watermark, so nobody needs them from the
        log.  Readers older than the truncation floor are still served
        exactly — :meth:`delta` falls back to a resident-table scan
        over ``row_version``, which never forgets — it just stops being
        O(changed rows) for them.
        """
        n = self._log_len
        self._memo.clear()
        if n == 0:
            if watermark is not None:
                self.log_floor = max(self.log_floor, watermark)
            return 0
        ids = self._log_ids[:n]
        # Last occurrence per id == newest entry (log is version-sorted).
        _, last_rev = np.unique(ids[::-1], return_index=True)
        keep = np.sort(n - 1 - last_rev)
        if watermark is not None:
            keep = keep[self._log_versions[:n][keep] > watermark]
            self.log_floor = max(self.log_floor, watermark)
        kept = keep.size
        self._log_versions[:kept] = self._log_versions[:n][keep]
        self._log_ids[:kept] = self._log_ids[:n][keep]
        self._log_len = kept
        return n - kept

    # ----------------------------------------------------------------- reads
    def _changed(self, since_version: int) -> tuple[np.ndarray, np.ndarray]:
        """``(ids, slots)`` of rows newer than ``since_version``, memoised.

        O(changed rows): one ``searchsorted`` into the version-sorted log
        plus a slice — never a scan of the resident table, unless the log
        was truncated past this sync point; then the answer comes exactly
        from the resident version vector (O(resident), the price of
        reading below the compaction watermark).
        """
        if since_version != self._memo_since:
            self._memo.clear()
            self._memo_since = since_version
        hit = self._memo.get(None)
        if hit is not None:
            return hit
        if since_version < self.log_floor:
            ids = self.resident_ids
            slots = self.slots.lookup(ids)
            newer = self.row_version[slots] > since_version
            hit = ids[newer], slots[newer]
        else:
            start = int(
                np.searchsorted(
                    self._log_versions[: self._log_len], since_version, side="right"
                )
            )
            tail = self._log_ids[start : self._log_len]
            # The common steady-state tail is a single publish segment,
            # already sorted-unique by construction; skip the sort then.
            if tail.size > 1 and not bool(np.all(tail[1:] > tail[:-1])):
                tail = np.unique(tail)
            # every logged id is resident by construction
            hit = tail, self.slots.lookup_present(tail)
        self._memo[None] = hit
        return hit

    def changed_count(self, since_version: int) -> int:
        return int(self._changed(since_version)[0].size)

    def delta(self, since_version: int, primary_only: bool) -> DeltaSlice:
        """The one delta read: rows changed after ``since_version``.

        Parameters
        ----------
        since_version : int
            Exclusive lower version bound.
        primary_only : bool
            Keep only the rows whose primary bit is set — this shard's own
            key range, disjoint from every other shard's.

        Returns
        -------
        ids, rows, versions : numpy.ndarray
            Changed ids ascending, their current payloads and versions
            (what replicated reads reconcile on).  The arrays are
            **read-only** and shared by every reader of this sync point
            until the block next mutates; copy before writing.
        """
        ids, slots = self._changed(since_version)
        hit = self._memo.get(primary_only)
        if hit is None:
            if primary_only:
                keep = self.primary[slots]
                ids, slots = ids[keep], slots[keep]
            else:
                ids = ids.copy()  # may be a view of the log
            hit = (ids, self.rows[slots], self.row_version[slots])
            for arr in hit:
                arr.flags.writeable = False
            self._memo[primary_only] = hit
        return hit

    def lookup_rows(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Point gather; returns ``(found_mask, rows)`` with zeros on miss."""
        slots = self.slots.lookup(ids)
        found = slots >= 0
        out = np.zeros((ids.size, self.dim), dtype=self.dtype)
        out[found] = self.rows[slots[found]]
        return found, out

    def lookup_with_versions(
        self, ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Point gather with versions; version 0 marks a missed id."""
        slots = self.slots.lookup(ids)
        found = slots >= 0
        out = np.zeros((ids.size, self.dim), dtype=self.dtype)
        versions = np.zeros(ids.size, dtype=np.int64)
        out[found] = self.rows[slots[found]]
        versions[found] = self.row_version[slots[found]]
        return found, out, versions

    def export_all(self) -> DeltaSlice:
        ids = self.resident_ids
        slots = self.slots.lookup(ids)
        return ids, self.rows[slots].copy(), self.row_version[slots].copy()


class ParameterShard:
    """One shard: per-table row blocks, delta logs, and I/O accounting.

    ``row_dtype`` selects the row lane of every block this shard creates;
    ``row_bytes`` is the accounting size per row and should agree with the
    lane (the store computes it as ``dim * itemsize`` when lane-aware).
    """

    def __init__(self, shard_id: int, row_bytes: int, row_dtype) -> None:
        self.shard_id = shard_id
        self.row_bytes = row_bytes
        self.row_dtype = np.dtype(row_dtype)
        self.stats = ShardStats()
        self._blocks: dict[str, _TableBlock] = {}

    # -------------------------------------------------------------- geometry
    @property
    def tables(self) -> list[str]:
        return list(self._blocks)

    @property
    def num_rows(self) -> int:
        return sum(b.num_rows for b in self._blocks.values())

    @property
    def log_entries(self) -> int:
        return sum(b.log_len for b in self._blocks.values())

    def block(self, table: str) -> _TableBlock | None:
        return self._blocks.get(table)

    def resident_ids(self, table: str) -> np.ndarray:
        block = self._blocks.get(table)
        return block.resident_ids if block else np.empty(0, dtype=np.int64)

    # ---------------------------------------------------------------- writes
    def _block_for(self, table: str, dim: int) -> _TableBlock:
        block = self._blocks.get(table)
        if block is None:
            block = self._blocks[table] = _TableBlock(dim=dim, dtype=self.row_dtype)
        return block

    def publish(
        self,
        table: str,
        ids: np.ndarray,
        rows: np.ndarray,
        version: int,
        primary: np.ndarray,
    ) -> int:
        """Write unique sorted ids; charges write stats; returns rows written."""
        block = self._block_for(table, rows.shape[1])
        written = block.publish(ids, rows, version, primary)
        self.stats.rows_written += written
        self.stats.bytes_written += written * self.row_bytes
        return written

    def ingest(
        self,
        table: str,
        ids: np.ndarray,
        rows: np.ndarray,
        versions: np.ndarray,
        primary: np.ndarray,
    ) -> None:
        if ids.size:
            self._block_for(table, rows.shape[1]).ingest(
                ids, rows, versions, primary
            )

    def retag_primary(
        self, table: str, ids: np.ndarray, primary: np.ndarray
    ) -> None:
        if ids.size:
            self._blocks[table].retag_primary(ids, primary)

    def drop(self, table: str, ids: np.ndarray) -> DeltaSlice | None:
        """Evict ``ids``; the evicted triple, or None if the table is
        unknown here (nothing to evict, and no width to shape an empty)."""
        block = self._blocks.get(table)
        return None if block is None else block.drop(ids)

    def compact(self, watermark: int | None = None) -> int:
        """Compact every table's delta log; returns total entries dropped.

        Without ``watermark`` this is the lossless keep-latest-per-id
        squeeze.  With one, log entries at or below it are truncated
        outright — the shard cannot know who still reads that far back,
        so the *store* passes the oldest of its registered client sync
        points (see :meth:`ShardedParameterStore.compact`).
        """
        return sum(b.compact(watermark) for b in self._blocks.values())

    # ----------------------------------------------------------------- reads
    def pull_delta(
        self,
        table: str,
        since_version: int,
        primary_only: bool = False,
        charge: bool = True,
    ) -> DeltaSlice | None:
        """Read-only ``(ids, rows, versions)`` slice (see
        :meth:`_TableBlock.delta`); None if the table is unknown here.
        Every read is charged, whether or not it hit the block's memo."""
        block = self._blocks.get(table)
        if block is None:
            return None
        part = block.delta(since_version, primary_only)
        if charge and part[0].size:
            self.stats.rows_read += int(part[0].size)
            self.stats.bytes_read += int(part[0].size) * self.row_bytes
        return part

    def pull_rows_versions(
        self, table: str, ids: np.ndarray, charge: bool = True
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """``(found, rows, versions)`` point gather; None if table unknown."""
        block = self._blocks.get(table)
        if block is None:
            return None
        found, rows, versions = block.lookup_with_versions(ids)
        hits = int(found.sum())
        if charge and hits:
            self.stats.rows_read += hits
            self.stats.bytes_read += hits * self.row_bytes
        return found, rows, versions

    def export_table(self, table: str) -> DeltaSlice | None:
        """Every resident ``(ids, rows, versions)`` of one table; None if
        the table is unknown here.  Rows and versions are copies, safe to
        keep across subsequent drops (rebalancing exports before moving)."""
        block = self._blocks.get(table)
        return None if block is None else block.export_all()

    def changed_count(self, table: str, since_version: int) -> int:
        block = self._blocks.get(table)
        return 0 if block is None else block.changed_count(since_version)

    def pull_rows(
        self, table: str, ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """``(found, rows)`` for ids this shard owns; None if table unknown."""
        block = self._blocks.get(table)
        if block is None:
            return None
        found, rows = block.lookup_rows(ids)
        hits = int(found.sum())
        if hits:
            self.stats.rows_read += hits
            self.stats.bytes_read += hits * self.row_bytes
        return found, rows

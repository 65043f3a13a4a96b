"""One shard of the parameter plane: array-native rows + delta log.

Each shard stores its tables as dense row blocks — an
:class:`repro.core.kernels.IdSlotTable` maps row ids to slots in a
``(capacity, dim)`` float array with a parallel ``int64`` version vector —
and keeps an append-only *delta log* of publish segments: one
``(version, ids)`` pair per write, ``ids`` the read-only, sorted-unique
ids that write stamped.  A version changes once per publish, so the log
holds 8 bytes per logged id and one int per segment.  Because versions
only ever grow, the segments stay sorted by version and
``pull_delta(since)`` is a bisection over the segment versions plus the
ids of exactly the segments newer than ``since``: O(changed rows), never
a scan of the world.  The log idiom follows the low-rank delta-update
storage of git-theta (checkpoint-vcs): persist what changed per version,
reconstruct any read-point by slicing, and compact losslessly by keeping
the latest entry per id.

Every resident row also carries a *primary bit*, written with the row: set
on the replica that is rank 0 of the row's owner list.  A primary-range
read is then the log slice plus a boolean gather — no re-hashing of ids
through the placement ring.  :meth:`_TableBlock.delta` is the one delta
read; it memoises the slices of its last log tail, keyed by the tail's
first segment, until the block next mutates, so every reader whose sync
point maps to that tail shares one set of (read-only) arrays.  A tail of
one segment is that segment's own array (no copy, no sort).  A publish
that only overwrites resident rows *primes* that memo: its segment is
the whole tail of every reader synced before it, so the next read gets
the slots and the primary rows the write was handed.  A publish that
grows the block primes nothing, so a store fill pins no copy of itself.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from ...core.kernels import IdSlotTable, run_starts

__all__ = ["DeltaSlice", "MutationEpoch", "ShardStats", "ParameterShard"]

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


class MutationEpoch:
    """One store's write counter, shared by all of its shards.

    Every shard write (publish, ingest, drop, primary retag, re-widen,
    compaction) moves ``value``; a store publish, repair or compaction
    moves it through those.  The store moves it itself for the changes
    that write no shard: a kill, a revive, a ring change.  A read
    memoised at one value is stale once it moved.
    """

    def __init__(self) -> None:
        self.value = 0

    def bump(self) -> None:
        self.value += 1


class _TableBlock:
    """Rows of one table resident on one shard.

    ``dtype`` is the store's row lane (float32 unless a caller asks for
    float64 explicitly).
    """

    def __init__(self, dim: int, dtype) -> None:
        self.dim = dim
        self.capacity = 64  # doubles on demand (_grow_block)
        self.dtype = np.dtype(dtype)
        self.slots = IdSlotTable(self.capacity)
        self.rows = np.zeros((self.capacity, dim), dtype=self.dtype)
        self.row_version = np.zeros(self.capacity, dtype=np.int64)
        # True where this shard is rank 0 of the row's replica owners.
        self.primary = np.zeros(self.capacity, dtype=bool)
        # Append-only log of publish segments, ascending by version: one
        # version per segment and its read-only, sorted-unique ids.
        self._seg_versions: list[int] = []
        self._seg_ids: list[np.ndarray] = []
        # Versions at or below the floor have been truncated out of the
        # log (watermark compaction); older sync points fall back to an
        # exact resident-table scan over ``row_version``.
        self.log_floor = 0
        # Slices of one log tail, valid until the next mutation:
        # None -> (ids, slots), primary_only -> (ids, rows, versions).
        # Keyed by the tail's first segment, or ("scan", since) below the
        # floor; a pure-overwrite publish primes it for its segment.
        # ``_memo_since`` is the last sync point known to map to the key.
        self._memo_key: int | tuple[str, int] | None = None
        self._memo_since: int | None = None
        self._memo: dict[bool | None, tuple[np.ndarray, ...]] = {}

    # -------------------------------------------------------------- geometry
    @property
    def num_rows(self) -> int:
        return self.slots.size

    @property
    def resident_ids(self) -> np.ndarray:
        """Ids stored in this block, ascending."""
        return self.slots.keys

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
        """Double the row block in place: every resident row keeps its slot,
        so a slot the store's row directory holds stays valid."""
        new_capacity = max(self.capacity * 2, self.slots.size + need)
        new_rows = np.zeros((new_capacity, self.dim), dtype=self.dtype)
        new_versions = np.zeros(new_capacity, dtype=np.int64)
        new_primary = np.zeros(new_capacity, dtype=bool)
        new_rows[: self.capacity] = self.rows
        new_versions[: self.capacity] = self.row_version
        new_primary[: self.capacity] = self.primary
        self.slots.grow(new_capacity)
        self.rows = new_rows
        self.row_version = new_versions
        self.primary = new_primary
        self.capacity = new_capacity

    def _ensure_slots(self, ids: np.ndarray) -> tuple[np.ndarray, bool]:
        """Slot per id (growing the block if it is full), and whether any
        id was granted a new slot."""
        slots, granted = self.slots.insert(ids)
        if (slots < 0).any():
            self._grow_block(int((slots < 0).sum()))
            slots, _ = self.slots.insert(ids)
            return slots, True
        return slots, granted.size > 0

    def _log_filter(self, keep: np.ndarray) -> None:
        """Keep the log entries where ``keep`` (one bool per entry, in log
        order) is set; a segment that keeps every entry keeps its array,
        one that keeps none is freed."""
        ends = np.cumsum([ids.size for ids in self._seg_ids]).tolist()
        versions: list[int] = []
        segments: list[np.ndarray] = []
        start = 0
        for version, ids, end in zip(self._seg_versions, self._seg_ids, ends):
            mask = keep[start:end]
            start = end
            if not mask.all():
                if not mask.any():
                    continue
                ids = ids[mask]
                ids.flags.writeable = False
            versions.append(version)
            segments.append(ids)
        self._seg_versions, self._seg_ids = versions, segments

    # ---------------------------------------------------------------- writes
    def publish(
        self,
        ids: np.ndarray,
        rows: np.ndarray,
        version: int,
        primary: np.ndarray,
        slots: np.ndarray,
    ) -> np.ndarray:
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
        slots : numpy.ndarray of int
            Per row, its slot here when the caller already knows it
            (the store's row directory), ``-1`` where it does not.  A
            known slot is an overwrite of a resident row: no search, and
            its primary bit is left as it is.  An unknown one is searched
            or granted, and takes ``primary``.

        Returns
        -------
        numpy.ndarray of int
            The slot of every row, aligned with ``ids``.
        """
        unknown = np.flatnonzero(slots < 0)
        fresh = False
        if unknown.size:
            slots = slots.copy()
            placed, fresh = self._ensure_slots(ids[unknown])
            slots[unknown] = placed
            self.primary[placed] = primary[unknown]
        self.rows[slots] = rows
        self.row_version[slots] = version
        at = len(self._seg_ids)
        segment = np.array(ids, dtype=np.int64)
        segment.flags.writeable = False
        if segment.size:
            self._seg_versions.append(version)
            self._seg_ids.append(segment)
        self._memo.clear()
        if not fresh:
            # Prime the tail of readers synced before ``version`` from
            # arrays the block owns: the new segment and copies of the
            # rows just written (a resident row's primary bit is
            # ``primary``).
            keep = np.flatnonzero(primary)
            primed = (
                segment.take(keep),
                rows.take(keep, axis=0),
                np.full(keep.size, version, dtype=np.int64),
            )
            for arr in primed:
                arr.flags.writeable = False
            self._memo_key, self._memo_since = at, None
            self._memo[None] = (segment, slots)
            self._memo[True] = primed
        return slots

    def ingest(
        self,
        ids: np.ndarray,
        rows: np.ndarray,
        versions: np.ndarray,
        primary: np.ndarray,
    ) -> None:
        """Adopt rows migrated from another shard, preserving their versions.

        ``ids`` are unique.  Their log entries interleave with resident
        ones: each version's ids become one segment, placed after every
        resident segment of the same or an older version (a stable merge
        by version), so the log stays sorted by version.
        """
        slots, _ = self._ensure_slots(ids)
        self.rows[slots] = rows
        self.row_version[slots] = versions
        self.primary[slots] = primary
        self._memo.clear()
        order = np.argsort(versions, kind="stable")
        by_version = versions[order]
        starts = run_starts(by_version).tolist()
        for lo, hi in zip(starts, starts[1:] + [order.size]):
            version = int(by_version[lo])
            segment = np.sort(ids[order[lo:hi]])
            segment.flags.writeable = False
            at = bisect_right(self._seg_versions, version)
            self._seg_versions.insert(at, version)
            self._seg_ids.insert(at, segment)

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
        if self._seg_ids:
            self._log_filter(~np.isin(np.concatenate(self._seg_ids), ids))
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
        n = sum(ids.size for ids in self._seg_ids)
        self._memo.clear()
        if watermark is not None:
            self.log_floor = max(self.log_floor, watermark)
            # Every entry at or below the watermark goes, latest or not:
            # whole segments, freed without a look at their ids.
            cut = bisect_right(self._seg_versions, watermark)
            del self._seg_versions[:cut], self._seg_ids[:cut]
        if len(self._seg_ids) > 1:
            ids = np.concatenate(self._seg_ids)
            # Last occurrence per id == newest entry (log is version-sorted).
            _, last_rev = np.unique(ids[::-1], return_index=True)
            keep = np.zeros(ids.size, dtype=bool)
            keep[ids.size - 1 - last_rev] = True
            self._log_filter(keep)
        return n - sum(ids.size for ids in self._seg_ids)

    # ----------------------------------------------------------------- reads
    def _changed(self, since_version: int) -> tuple[np.ndarray, np.ndarray]:
        """``(ids, slots)`` of rows newer than ``since_version``, memoised.

        O(changed rows): one bisection of the segment versions plus the
        tail's ids — never a scan of the resident table, unless the log
        was truncated past this sync point; then the answer comes exactly
        from the resident version vector (O(resident), the price of
        reading below the compaction watermark).  The memo key is the
        tail's first segment, so every sync point that maps to one tail
        shares its slices, and a tail the last publish primed needs no
        lookup.
        """
        below_floor = since_version < self.log_floor
        # A repeat of the last sync point read reuses its key unsearched.
        if since_version != self._memo_since or not self._memo:
            key: int | tuple[str, int] = (
                ("scan", since_version) if below_floor
                else bisect_right(self._seg_versions, since_version)
            )
            if key != self._memo_key:
                self._memo.clear()
                self._memo_key = key
            self._memo_since = since_version
        hit = self._memo.get(None)
        if hit is not None:
            return hit
        if below_floor:
            ids = self.resident_ids
            slots = self.slots.lookup(ids)
            newer = self.row_version[slots] > since_version
            hit = ids[newer], slots[newer]
        else:
            segments = self._seg_ids[self._memo_key :]
            # The common steady-state tail is a single publish segment,
            # already sorted-unique by construction: read it as it is.
            if len(segments) == 1:
                tail = segments[0]
            elif segments:
                tail = np.unique(np.concatenate(segments))
            else:
                tail = np.empty(0, dtype=np.int64)
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
            **read-only** and shared by every reader whose sync point maps
            to the same log tail until the block next mutates; copy before
            writing.
        """
        ids, slots = self._changed(since_version)
        hit = self._memo.get(primary_only)
        if hit is None:
            if primary_only:
                keep = self.primary[slots]
                ids, slots = ids[keep], slots[keep]
            else:
                ids = ids.copy()  # may be a log segment, which outlives this
            hit = (ids, self.rows[slots], self.row_version[slots])
            for arr in hit:
                arr.flags.writeable = False
            self._memo[primary_only] = hit
        return hit

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
    Every write bumps ``epoch``, the owning store's :class:`MutationEpoch`.
    """

    def __init__(
        self, shard_id: int, row_bytes: int, row_dtype, epoch: MutationEpoch
    ) -> None:
        self.shard_id = shard_id
        self.row_bytes = row_bytes
        self.row_dtype = np.dtype(row_dtype)
        self.epoch = epoch
        self.stats = ShardStats()
        self._blocks: dict[str, _TableBlock] = {}

    # -------------------------------------------------------------- geometry
    @property
    def tables(self) -> list[str]:
        return list(self._blocks)

    @property
    def num_rows(self) -> int:
        return sum(b.num_rows for b in self._blocks.values())

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
        slots: np.ndarray,
    ) -> np.ndarray:
        """Write unique sorted ids (see :meth:`_TableBlock.publish`);
        charges write stats; returns the slot of every row."""
        block = self._block_for(table, rows.shape[1])
        slots = block.publish(ids, rows, version, primary, slots)
        self.epoch.bump()
        self.stats.rows_written += int(ids.size)
        self.stats.bytes_written += int(ids.size) * self.row_bytes
        return slots

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
            self.epoch.bump()

    def retag_primary(
        self, table: str, ids: np.ndarray, primary: np.ndarray
    ) -> None:
        if ids.size:
            self._blocks[table].retag_primary(ids, primary)
            self.epoch.bump()

    def rewiden(self, table: str, dim: int) -> None:
        """Grow ``table``'s row width here, if this shard holds it."""
        block = self._blocks.get(table)
        if block is not None:
            block.rewiden(dim)
            self.epoch.bump()

    def drop(self, table: str, ids: np.ndarray) -> DeltaSlice | None:
        """Evict ``ids``; the evicted triple, or None if the table is
        unknown here (nothing to evict, and no width to shape an empty)."""
        block = self._blocks.get(table)
        if block is None:
            return None
        self.epoch.bump()
        return block.drop(ids)

    def compact(self, watermark: int | None = None) -> int:
        """Compact every table's delta log; returns total entries dropped.

        Without ``watermark`` this is the lossless keep-latest-per-id
        squeeze.  With one, log entries at or below it are truncated
        outright — the shard cannot know who still reads that far back,
        so the *store* passes the oldest of its registered client sync
        points (see :meth:`ShardedParameterStore.compact`).
        """
        self.epoch.bump()
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
        if charge:
            self.charge_read(int(part[0].size))
        return part

    def charge_read(self, rows: int) -> None:
        """Account ``rows`` rows read from this shard."""
        self.stats.rows_read += rows
        self.stats.bytes_read += rows * self.row_bytes

    def pull_rows_versions(
        self, table: str, ids: np.ndarray, charge: bool = True
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """``(found, rows, versions)`` point gather; None if table unknown."""
        block = self._blocks.get(table)
        if block is None:
            return None
        found, rows, versions = block.lookup_with_versions(ids)
        if charge:
            self.charge_read(int(found.sum()))
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

"""The sharded parameter store: the Fig. 2 KV tier, array-native.

``ShardedParameterStore`` partitions ``(table, row_id)`` keys across N
:class:`ParameterShard` instances via the splitmix64 consistent-hash
:class:`ShardPlacement` — byte-identical placement in every process of the
fleet, unlike the seed store's salted ``hash()``.  Publishes partition their
index batch per shard in one vectorized pass (one row-directory gather, the
ring hash only for ids the directory does not hold, one argsort); pulls
slice each shard's delta log, so ``pull_delta(since)`` costs O(changed
rows) rather than the seed's O(all rows) dict scan.  Version
batching is preserved: one publish event = one global version bump however
many tables and rows it carries.

Shards can be added or removed live: consistent hashing remaps only the
splitmix64-owned key ranges of the shards that changed owners (~1/N of
keys), and :meth:`add_shard` / :meth:`remove_shard` migrate exactly those
rows, log entries included, so delta semantics survive rebalancing.

**Replication and self-healing.**  With ``replication=R`` each key lives on
the next R distinct shards clockwise from its ring position
(:meth:`ShardPlacement.replica_owners`), and the failure story changes from
"one lost shard silently loses rows" to an explicit contract:

* a publish is **acknowledged** only when every row reached its write
  quorum of ``R // 2 + 1`` live replicas; otherwise it raises a typed
  :class:`QuorumError` *before* bumping the version or writing anything,
  so a failed publish can simply be retried after repair;
* replicas that miss an acknowledged publish (down, or dropped by fault
  injection) are recorded in a store-side missed-version ledger; reads
  reconcile per row by version, so :meth:`pull_delta` transparently
  fails over to the freshest live copy;
* :meth:`plan_repair` / :meth:`repair` re-replicate exactly the rows a
  revived or stale replica is behind on, restoring byte-identical copies.

Delta logs no longer grow without bound: clients register their sync
points with the store, and :meth:`compact` truncates each log up to the
oldest registered sync point — never past it — while readers below the
truncation floor are still served exactly from the resident version
vectors (at O(resident) cost instead of O(changed)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ...core.dtypes import ROW_DTYPE, as_rows, check_row_dtype
from ...core.kernels import freshest_per_id, is_sorted_unique
from .placement import ShardPlacement
from .shard import DeltaSlice, MutationEpoch, ParameterShard, ShardStats

__all__ = [
    "QuorumError",
    "RebalanceReport",
    "RepairTask",
    "RepairPlan",
    "RepairReport",
    "ShardedParameterStore",
]


class QuorumError(RuntimeError):
    """A publish could not reach its write quorum and was not applied.

    Raised *before* the version bump and before any shard is written, so
    the store is untouched: the caller (typically a
    :class:`~repro.cluster.shardstore.client.ShardClient`, whose staged
    batches survive a failed flush) retries the same publish after the
    fleet heals.  Never swallow this into a silent row drop.
    """

    def __init__(self, table: str, version: int, needed: int, got: int):
        super().__init__(
            f"publish v{version} on table {table!r} reached only {got} of "
            f"{needed} required replicas"
        )
        self.table = table
        self.version = version
        self.needed = needed
        self.got = got


@dataclass
class RebalanceReport:
    """Outcome of one shard add/remove migration."""

    shard_ids: list[int]
    rows_moved: int
    rows_total: int
    bytes_moved: int

    @property
    def moved_fraction(self) -> float:
        return self.rows_moved / self.rows_total if self.rows_total else 0.0


@dataclass
class RepairTask:
    """Rows one stale replica must copy from its fresh peers."""

    shard_id: int
    table: str
    ids: np.ndarray
    rows: np.ndarray
    versions: np.ndarray
    primary: np.ndarray  # per row: is ``shard_id`` rank 0 of its owners

    @property
    def num_rows(self) -> int:
        return int(self.ids.size)


@dataclass
class RepairPlan:
    """Everything :meth:`ShardedParameterStore.repair` would copy.

    Built by :meth:`~ShardedParameterStore.plan_repair` without mutating
    the store, so failure experiments can inspect (and account the bytes
    of) a repair before running it.
    """

    tasks: list[RepairTask] = field(default_factory=list, init=False)
    stale_shards: list[int] = field(default_factory=list, init=False)
    rows_to_copy: int = 0
    bytes_to_copy: int = 0


@dataclass
class RepairReport:
    """What one :meth:`ShardedParameterStore.repair` actually copied."""

    rows_copied: int
    bytes_copied: int
    shards_healed: list[int]


#: A table's row directory addresses ids below this multiple of the rows
#: it holds, rounded up to a power of two (so the bound, and with it the
#: lanes, grow in a few doubling steps).  A negative id, or one past the
#: bound, is resolved by hash and slot search on every publish, exactly as
#: if the directory were not there.
DIRECTORY_SPAN = 64


class _RowDirectory:
    """Where each fully replicated row of one table lives.

    Two direct-address lanes indexed by id: ``owner[id]`` lists the row's
    R replica owners in ring order (the primary first) and ``slot[id]``
    its slot in each owner's block; a ``-1`` slot marks an id the
    directory does not hold (a shard id may itself be -1).  An id is entered only once every one of its owners holds
    it, with the slots those owners' inserts returned.  No block ever
    moves a resident row's slot (growth keeps them), so an entry stays
    true until the ring changes, and ring changes clear the directory.
    """

    def __init__(self, replication: int, owner_dtype) -> None:
        self.entries = 0
        self.owner = np.full((0, replication), -1, dtype=owner_dtype)
        self.slot = np.full((0, replication), -1, dtype=np.int32)

    def resolve(
        self, ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One gather for sorted-unique ``ids``: ``(owners, slots, miss)``,
        where the rows at positions ``miss`` are ``-1`` (not held)."""
        owners = np.full((ids.size, self.owner.shape[1]), -1, dtype=self.owner.dtype)
        slots = np.full(owners.shape, -1, dtype=np.int32)
        lo, hi = np.searchsorted(ids, (0, self.slot.shape[0]))
        window = ids[lo:hi]  # in range, so "clip" never clips
        self.owner.take(window, axis=0, out=owners[lo:hi], mode="clip")
        self.slot.take(window, axis=0, out=slots[lo:hi], mode="clip")
        return owners, slots, np.flatnonzero(slots[:, 0] < 0)

    def enter(self, ids: np.ndarray, owners: np.ndarray, slots: np.ndarray) -> None:
        """Hold the rows of sorted ``ids`` that every owner wrote (no
        ``-1`` slot left) and that the lanes may address."""
        bound = DIRECTORY_SPAN << (self.entries + ids.size).bit_length()
        lo, hi = np.searchsorted(ids, (0, bound))
        ids, owners, slots = ids[lo:hi], owners[lo:hi], slots[lo:hi]
        if (slots < 0).any():  # an owner the write skipped
            held = (slots >= 0).all(axis=1)
            ids, owners, slots = ids[held], owners[held], slots[held]
        if ids.size == 0:
            return
        size = self.slot.shape[0]
        if ids[-1] >= size:
            size = min(bound, max(2 * size, int(ids[-1]) + 1))
            self.owner = self._extend(self.owner, size)
            self.slot = self._extend(self.slot, size)
        # A table twice in one publish enters its shared ids twice.
        self.entries += int(np.count_nonzero(self.slot[ids, 0] < 0))
        self.owner[ids] = owners
        self.slot[ids] = slots

    @staticmethod
    def _extend(lane: np.ndarray, size: int) -> np.ndarray:
        wider = np.full((size, lane.shape[1]), -1, dtype=lane.dtype)
        wider[: lane.shape[0]] = lane
        return wider


class ShardedParameterStore:
    """Versioned row store sharded by stable hash of ``(table, row_id)``.

    Parameters
    ----------
    num_shards : int, optional
        Initial shard count (ids ``0..N-1``).
    row_bytes : int or None, optional
        Accounting size per row for transfer-cost models.  ``None``
        computes it lane-aware as ``(row_dim or 16) * itemsize`` of
        ``row_dtype`` — a float32 store then charges half a float64
        store's bytes through every stat and transfer model.
    row_dim : int, optional
        Row width, when known up front; otherwise pinned at each table's
        first publish (no more probing rows to learn the dim).
    row_dtype : numpy dtype, optional
        Row lane of every resident block, float32 or float64; any other
        dtype raises ``TypeError``.  float32 (the default, the model
        plane's :data:`repro.core.dtypes.ROW_DTYPE`) takes float64 rows
        through a *checked* downcast at publish time
        (:func:`repro.core.dtypes.as_rows`) that raises when any value
        moves past ``rtol=1e-6``; float64 stores rows exactly.
    replication : int, optional
        Copies per key (the next R distinct ring owners).  1 (default)
        keeps the single-copy fast paths bit-for-bit; R > 1 turns on
        quorum publishes, version-reconciled reads and repair.

    Placement is the default :class:`ShardPlacement` ring over shard ids
    ``0 .. num_shards - 1`` (the same in every process).  Delta logs are
    compacted by calling :meth:`compact`.
    """

    def __init__(
        self,
        num_shards: int = 8,
        row_bytes: int | None = 128,
        row_dim: int | None = None,
        row_dtype=ROW_DTYPE,
        replication: int = 1,
    ) -> None:
        if num_shards <= 0:
            raise ValueError("need at least one shard")
        if not 1 <= replication <= num_shards:
            raise ValueError(
                f"replication {replication} must be in [1, {num_shards}]"
            )
        self.row_dtype = check_row_dtype(row_dtype, name="row_dtype")
        if row_bytes is None:
            row_bytes = (row_dim or 16) * self.row_dtype.itemsize
        self.row_bytes = row_bytes
        self.row_dim = row_dim
        self.replication = replication
        self.version = 0
        self.placement = ShardPlacement(list(range(num_shards)))
        self._epoch = MutationEpoch()
        self.shards: dict[int, ParameterShard] = {
            sid: ParameterShard(
                sid, row_bytes, row_dtype=self.row_dtype, epoch=self._epoch
            )
            for sid in range(num_shards)
        }
        self._dims: dict[str, int] = {}
        self._down: set[int] = set()
        # Hinted-handoff ledger: store version -> list per shard of
        # publishes that shard failed to apply (down or fault-dropped).
        self._missed: dict[int, list[int]] = {}
        self._directories: dict[str, _RowDirectory] = {}
        self._armed_drops: dict[int, int] = {}
        self._sync_points: dict[int, int] = {}
        self._next_sync_token = 1
        # Reads every client at one sync point shares (see ``_shared_reads``),
        # all taken at mutation epoch ``_shared_at``.
        self._shared: dict[tuple, object] = {}
        self._shared_at = -1

    # -------------------------------------------------------------- geometry
    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def quorum(self) -> int:
        """Replicas that must apply a publish for it to be acknowledged."""
        return self.replication // 2 + 1

    @property
    def shard_ids(self) -> list[int]:
        return sorted(self.shards)

    @property
    def live_shard_ids(self) -> list[int]:
        """Shards currently reachable (not killed), ascending."""
        return [sid for sid in self.shard_ids if sid not in self._down]

    @property
    def down_shard_ids(self) -> list[int]:
        return sorted(self._down)

    @property
    def replication_lag(self) -> int:
        """Missed ``(shard, version)`` applications awaiting repair."""
        return sum(len(v) for v in self._missed.values())

    @property
    def shard_stats(self) -> list[ShardStats]:
        """Per-shard accounting, in ascending shard-id order."""
        return [self.shards[sid].stats for sid in self.shard_ids]

    def __len__(self) -> int:
        return sum(s.num_rows for s in self.shards.values())

    @property
    def total_bytes(self) -> int:
        return len(self) * self.row_bytes

    def dim_of(self, table: str) -> int:
        """Row width of ``table`` (constructor/first-publish pin, else 1)."""
        return self._dims.get(table, self.row_dim if self.row_dim else 1)

    # --------------------------------------------------------------- failure
    def kill_shard(self, shard_id: int) -> None:
        """Mark one shard unreachable (crash, partition).

        The shard's rows stay where they are — a kill models loss of
        *availability*; :meth:`revive_shard` brings the same (now stale)
        data back, and :meth:`repair` reconverges it.  Publishes keep
        acknowledging as long as every row still reaches its quorum.
        """
        if shard_id not in self.shards:
            raise ValueError(f"unknown shard {shard_id}")
        if shard_id in self._down:
            raise ValueError(f"shard {shard_id} is already down")
        self._down.add(shard_id)
        self._epoch.bump()

    def revive_shard(self, shard_id: int) -> None:
        """Bring a killed shard back, stale: run :meth:`repair` to heal it."""
        if shard_id not in self._down:
            raise ValueError(f"shard {shard_id} is not down")
        self._down.discard(shard_id)
        self._epoch.bump()

    def arm_publish_drop(self, shard_id: int) -> None:
        """Make ``shard_id`` silently drop one more publish application.

        The fault-injection hook (:class:`repro.cluster.faults.FaultPlane`
        arms it from ``drop_publish`` events): the shard stays live but
        fails to apply, exactly like a lost message — quorum accounting
        and the missed-version ledger treat it the same as a down shard.
        """
        if shard_id not in self.shards:
            raise ValueError(f"unknown shard {shard_id}")
        self._armed_drops[shard_id] = self._armed_drops.get(shard_id, 0) + 1

    def _consume_armed_drops(self) -> frozenset[int]:
        if not self._armed_drops:
            return frozenset()
        dropping = frozenset(self._armed_drops)
        for sid in dropping:
            remaining = self._armed_drops[sid] - 1
            if remaining:
                self._armed_drops[sid] = remaining
            else:
                del self._armed_drops[sid]
        return dropping

    # ---------------------------------------------------------------- writes
    @staticmethod
    def _dedupe_last(
        indices: np.ndarray, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Unique ids ascending; on duplicates the last occurrence wins."""
        _, first_in_reversed = np.unique(indices[::-1], return_index=True)
        keep = indices.size - 1 - first_in_reversed
        return indices[keep], rows[keep]

    def _normalize_batch(
        self, indices: np.ndarray, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Shape/dtype validation, BEFORE any version bump or write.

        This is the ONE point where rows cross onto the store's lane: a
        float32 store downcasts float64 rows here through the
        checked coercer, so corruption (overflow, precision collapse)
        raises before any version bump instead of being served later.
        """
        indices = np.asarray(indices, dtype=np.int64)
        rows = as_rows(rows, self.row_dtype)
        if rows.ndim != 2 or rows.shape[0] != indices.shape[0]:
            raise ValueError("indices and rows disagree on length")
        return indices, rows

    def _reconcile_width(
        self, table: str, rows: np.ndarray
    ) -> np.ndarray:
        """Keep one row width per table across every shard.

        A wider batch re-widens the table's blocks on all shards (existing
        rows zero-pad on the right); a narrower batch zero-pads the incoming
        rows — the correct semantics for rank-adapted LoRA factors, whose
        pruned trailing components are zero.
        """
        width = int(rows.shape[1])
        known = self._dims.get(table)
        if known is None:
            self._dims[table] = width
        elif width > known:
            self._dims[table] = width
            for shard in self.shards.values():
                shard.rewiden(table, width)
        elif width < known:
            rows = np.pad(rows, ((0, 0), (0, known - width)))
        return rows

    def _apply_mask(
        self, owners: np.ndarray, drops: frozenset[int]
    ) -> np.ndarray | None:
        """Which ``(row, rank)`` writes will land; None means all of them."""
        blocked = self._down | set(drops)
        if not blocked:
            return None
        return ~np.isin(
            owners, np.asarray(sorted(blocked), dtype=np.int64)
        )

    def _directory(self, table: str) -> _RowDirectory:
        directory = self._directories.get(table)
        if directory is None:
            lane = np.iinfo(np.int16)
            narrow = lane.min <= min(self.shards) and max(self.shards) <= lane.max
            directory = self._directories[table] = _RowDirectory(
                self.replication, np.int16 if narrow else np.int64
            )
        return directory

    def _resolve(
        self, table: str, ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(owners, slots, miss)`` of sorted-unique ``ids``: one directory
        gather, then the ring hash for the misses only (their slots stay
        ``-1``, for the owners' blocks to search or grant)."""
        owners, slots, miss = self._directory(table).resolve(ids)
        if miss.size:
            owners[miss] = self.placement.replica_owners(
                table, ids[miss], self.replication
            )
        return owners, slots, miss

    def _apply_publish(
        self,
        table: str,
        ids: np.ndarray,
        rows: np.ndarray,
        owners: np.ndarray,
        slots: np.ndarray,
        miss: np.ndarray,
        mask: np.ndarray | None,
        version: int,
    ) -> None:
        """One partition pass over the ``(row, rank)`` writes that land.

        A row's replica owners are distinct shards, so grouping the cells
        of the ``owners``/``slots`` matrices by shard still hands every
        shard unique ids — one write per shard instead of one per
        ``(rank, shard)``.  Rank-0 cells land on the row's primary, which
        stores it as the row's primary bit.  A miss gets the slot its
        shard placed it at, and enters the directory if every owner did.
        """
        rows = self._reconcile_width(table, rows)
        if ids.size == 0:
            return
        cells = np.arange(owners.size, dtype=np.int64)
        if mask is not None:
            cells = cells[mask.reshape(-1)]
        owner_flat, slot_flat = owners.reshape(-1), slots.reshape(-1)
        # Owners are int16 when every shard id fits, which numpy's stable
        # sort radix-sorts.
        cells = cells[np.argsort(owner_flat[cells], kind="stable")]
        shard_of = owner_flat[cells]
        row_idx = cells // self.replication
        rank0 = cells % self.replication == 0
        bounds = np.flatnonzero(np.r_[True, shard_of[1:] != shard_of[:-1]])
        for start, stop in zip(bounds, np.r_[bounds[1:], cells.size]):
            cut, take = cells[start:stop], row_idx[start:stop]
            placed = self.shards[int(shard_of[start])].publish(
                table, ids[take], rows.take(take, axis=0), version,
                rank0[start:stop], slot_flat[cut],
            )
            if miss.size:
                slot_flat[cut] = placed
        if miss.size:
            self._directory(table).enter(ids[miss], owners[miss], slots[miss])
        if mask is not None and not mask.all():
            for sid in np.unique(owners[~mask]):
                ledger = self._missed.setdefault(int(sid), [])
                if not ledger or ledger[-1] != version:
                    ledger.append(version)

    def publish_batch(
        self, table: str, indices: np.ndarray, rows: np.ndarray
    ) -> int:
        """Write rows under a freshly bumped version.

        Parameters
        ----------
        table : str
            Destination table.
        indices : numpy.ndarray of int64
            Row ids; duplicates resolve to the last occurrence.
        rows : numpy.ndarray
            ``(len(indices), dim)`` row payloads.

        Returns
        -------
        int
            The version this publish landed under.

        Raises
        ------
        QuorumError
            When any row cannot reach its write quorum of live replicas;
            the store (version included) is left untouched.
        """
        return self.publish_many([(table, indices, rows)])

    def publish_many(
        self, batches: list[tuple[str, np.ndarray, np.ndarray]]
    ) -> int:
        """Several tables under ONE version bump (one synchronization event).

        This is the client-side batching primitive: a trainer pushing all
        its embedding tables at a window boundary is one publish event, not
        one per table.  Every batch validates — and, under replication,
        proves its write quorum — before the bump, so a malformed or
        under-quorum batch leaves the version (and every table) untouched.
        """
        prepared = []
        for table, indices, rows in batches:
            indices, rows = self._normalize_batch(indices, rows)
            if indices.size:
                # Drained touched rows and flushes arrive sorted-unique.
                if not is_sorted_unique(indices):
                    indices, rows = self._dedupe_last(indices, rows)
            owners, slots, miss = self._resolve(table, indices)
            prepared.append((table, indices, rows, owners, slots, miss))
        drops = self._consume_armed_drops()
        version = self.version + 1
        masks: list[np.ndarray | None] = []
        failed: tuple[str, int] | None = None
        for table, indices, _, owners, _, _ in prepared:
            mask = self._apply_mask(owners, drops) if indices.size else None
            if mask is not None and failed is None:
                got = int(mask.sum(axis=1).min())
                if got < self.quorum:
                    failed = (table, got)
            masks.append(mask)
        if failed is not None:
            table, got = failed
            raise QuorumError(table, version, self.quorum, got)
        self.version = version
        for batch, mask in zip(prepared, masks):
            self._apply_publish(*batch, mask, version)
        return version

    # ----------------------------------------------------------------- reads
    @staticmethod
    def _reconcile_parts(parts: list[DeltaSlice]) -> DeltaSlice:
        """Merge per-replica ``(ids, rows, versions)`` slices per-row.

        Each id keeps its highest-versioned copy — the read-side half of
        the quorum protocol: whichever live replica is freshest for a row
        wins, so a dead primary never hides an acknowledged write that
        survives on its peers.
        """
        return freshest_per_id(
            np.concatenate([p[0] for p in parts]),
            np.concatenate([p[1] for p in parts], axis=0),
            np.concatenate([p[2] for p in parts]),
        )

    @staticmethod
    def _merge_disjoint(parts: list[DeltaSlice]) -> DeltaSlice:
        """Concatenate slices of disjoint key ranges, ordered by id — one
        copy per row, so nothing to reconcile.  The result is the
        caller's own: the (shared, read-only) parts are copied."""
        parts = [p for p in parts if p[0].size] or parts[:1]
        if len(parts) == 1:  # slices are ascending by id already
            return tuple(arr.copy() for arr in parts[0])
        order = np.argsort(np.concatenate([p[0] for p in parts]))
        ids, rows, versions = (
            np.concatenate([p[k] for p in parts], axis=0)[order] for k in range(3)
        )
        return ids, rows, versions

    def empty_delta(self, table: str) -> DeltaSlice:
        """Zero-row ``(ids, rows, versions)`` of ``table``'s width and lane."""
        return (
            np.empty(0, dtype=np.int64),
            np.zeros((0, self.dim_of(table)), dtype=self.row_dtype),
            np.empty(0, dtype=np.int64),
        )

    def _slices(
        self,
        table: str,
        since_version: int,
        shard_ids: list[int],
        primary_only: bool,
        charge: bool = True,
    ) -> list[DeltaSlice]:
        """The non-empty delta slices of ``shard_ids``: every delta read
        of the store goes through this one shard primitive."""
        parts = (
            self.shards[sid].pull_delta(table, since_version, primary_only, charge)
            for sid in shard_ids
        )
        return [p for p in parts if p is not None and p[0].size]

    def pull_delta(
        self, table: str, since_version: int
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """All rows of ``table`` newer than ``since_version``; O(changed).

        With every shard live and none suspect past ``since_version``,
        each primary answers for its own key range from its own log: the
        slices are disjoint and carry one copy per row, so they only need
        ordering.  Otherwise the delta is reconciled across every live
        replica's log (per-row max version), so a killed shard never
        hides an acknowledged publish that reached its quorum — the read
        fails over to whichever surviving copy is freshest, row by row.

        Parameters
        ----------
        table : str
            Table to slice.
        since_version : int
            The caller's sync point; entries at or below it are skipped.
            A value at or beyond the current version (including "in the
            future") yields an empty delta.

        Returns
        -------
        indices : numpy.ndarray of int64
            Changed row ids, ascending.
        rows : numpy.ndarray
            Their current payloads.
        current_version : int
            The store version — the caller's new sync point.
        """
        healthy = not self._down and not self.suspect_shard_ids(since_version)
        parts = self._slices(
            table, since_version, self.live_shard_ids, primary_only=healthy
        )
        if not parts:
            ids, rows, _ = self.empty_delta(table)
        elif healthy:
            ids, rows, _ = self._merge_disjoint(parts)
        else:
            ids, rows, _ = self._reconcile_parts(parts)
        return ids, rows, self.version

    def _shared_reads(self) -> dict[tuple, object]:
        """The reads memoised at the current mutation epoch; a moved epoch
        empties them first."""
        if self._shared_at != self._epoch.value:
            self._shared.clear()
            self._shared_at = self._epoch.value
        return self._shared

    def pull_covered(
        self,
        table: str,
        since_version: int,
        clean: list[int],
        recon: list[int],
        available: list[int],
    ) -> DeltaSlice:
        """The delta of one pull coverage: every ``clean`` primary's own
        slice (:meth:`pull_delta_primary`) plus the ``recon`` ranges read
        reconciled from ``available`` (:meth:`pull_delta_ranges`), ordered
        by id.

        Every reader of one ``(table, since_version, coverage)`` shares one
        merge until the store next mutates.  Each still pays the shard
        reads that merge made, charged to the same shards, and gets its own
        copy of the arrays.
        """
        shared = self._shared_reads()
        key = ("delta", table, since_version, *map(tuple, (clean, recon, available)))
        hit = shared.get(key)
        if hit is None:
            shards = list(self.shards.values())
            before = [shard.stats.rows_read for shard in shards]
            # Primaries own disjoint key sets; empty parts keep the
            # table's width, so they merge without special-casing.
            parts = [
                self.pull_delta_primary(table, since_version, sid) for sid in clean
            ]
            if recon:
                parts.append(
                    self.pull_delta_ranges(table, since_version, recon, available)
                )
            merged = self._merge_disjoint(parts)
            for arr in merged:
                arr.flags.writeable = False
            charged = [
                (shard, shard.stats.rows_read - read)
                for shard, read in zip(shards, before)
                if shard.stats.rows_read != read
            ]
            shared[key] = merged, charged
        else:
            merged, charged = hit
            for shard, rows in charged:
                shard.charge_read(rows)
        return tuple(arr.copy() for arr in merged)

    def changed_rows(self, tables: list[str], since_version: int) -> dict[int, int]:
        """Per shard, its log entries past ``since_version`` over ``tables``:
        every replica copy it holds, not only its primary range.  Shared by
        every caller until the store next mutates; do not modify."""
        shared = self._shared_reads()
        key = ("changed", since_version, *tables)
        counts = shared.get(key)
        if counts is None:
            counts = shared[key] = {
                sid: sum(
                    shard.changed_count(table, since_version) for table in tables
                )
                for sid, shard in sorted(self.shards.items())
            }
        return counts

    # ------------------------------------------------ resilient-read surface
    def suspect_shard_ids(self, since_version: int) -> list[int]:
        """Live shards that may be stale for a reader synced at ``since``.

        A shard is *suspect* when its missed-version ledger holds any
        acknowledged publish past the reader's sync point: a delta read
        served from that shard's own log alone could silently omit rows.
        Live shards whose misses are all at or below ``since_version``
        are still clean for delta reads — the reader already holds those
        rows from an earlier (quorum-reconciled) sync.
        """
        out: list[int] = []
        if not self._missed:
            return out
        for sid in self.live_shard_ids:
            missed = self._missed.get(sid)
            if missed and any(v > since_version for v in missed):
                out.append(sid)
        return out

    def pull_delta_primary(
        self, table: str, since_version: int, shard_id: int
    ) -> DeltaSlice:
        """One shard's own delta slice, restricted to rows it is primary for.

        The resilient client's cheap path: a clean primary (live, not
        suspect past ``since_version``) answers for its own key range
        from its local log — one replica's bytes instead of the R-way
        reconciled read, selected by the rows' primary bit (no re-hash).
        Exactness for a *suspect* or dead primary is the caller's problem
        (see :meth:`pull_delta_ranges`).

        Returns
        -------
        ids, rows, versions : numpy.ndarray
            The shard's changed rows whose primary owner it is,
            ascending by id, with the store version of each write.
            Read-only: the slice is shared with every reader at this
            sync point.
        """
        if shard_id not in self.shards:
            raise KeyError(f"unknown shard {shard_id}")
        if shard_id in self._down:
            raise RuntimeError(f"shard {shard_id} is down")
        part = self.shards[shard_id].pull_delta(
            table, since_version, primary_only=True
        )
        return self.empty_delta(table) if part is None else part

    def pull_delta_ranges(
        self,
        table: str,
        since_version: int,
        primary_ids: list[int],
        from_shards: list[int],
    ) -> DeltaSlice:
        """Reconciled delta for the key ranges of selected primaries.

        The resilient client's failover path: when some primaries are
        down, partitioned, or suspect, the rows *they* own are read from
        ``from_shards`` (typically every reachable shard) and reconciled
        per-row to the freshest acknowledged copy — the same max-version
        merge :meth:`pull_delta` uses, restricted to the uncovered key
        ranges so healthy primaries' bytes are not re-transferred.

        A reconciled row belongs to the requested ranges unless a primary
        *outside* ``primary_ids`` claims it through its primary bit, so
        every live shard outside ``primary_ids`` must be clean for
        ``since_version`` — which is how the resilient client splits the
        ring: clean primaries answer for themselves, this read takes
        everything else.

        Returns
        -------
        ids, rows, versions : numpy.ndarray
            Changed rows whose primary owner is in ``primary_ids``,
            ascending by id, with the store version of each write.
        """
        if not primary_ids or not from_shards:
            return self.empty_delta(table)
        parts = self._slices(
            table,
            since_version,
            [sid for sid in from_shards if sid not in self._down],
            primary_only=False,
        )
        if not parts:
            return self.empty_delta(table)
        ids, rows, versions = self._reconcile_parts(parts)
        wanted = {int(sid) for sid in primary_ids}
        claimed = self._slices(
            table,
            since_version,
            [sid for sid in self.live_shard_ids if sid not in wanted],
            primary_only=True,
            charge=False,
        )
        if claimed:
            keep = ~np.isin(ids, np.concatenate([c[0] for c in claimed]))
            ids, rows, versions = ids[keep], rows[keep], versions[keep]
        return ids, rows, versions

    # ---------------------------------------------------------- sync points
    def register_sync_point(self, version: int | None = None) -> int:
        """Register a reader's sync point; returns its token.

        The oldest registered sync point is the compaction watermark:
        :meth:`compact` never truncates log entries a registered reader
        still needs.  Readers update via :meth:`update_sync_point` after
        each pull; a reader that stops pulling deliberately pins the
        watermark (that is the guard working, not a leak).
        """
        token = self._next_sync_token
        self._next_sync_token += 1
        self._sync_points[token] = (
            self.version if version is None else int(version)
        )
        return token

    def update_sync_point(self, token: int, version: int) -> None:
        if token not in self._sync_points:
            raise KeyError(f"unknown sync token {token}")
        self._sync_points[token] = int(version)

    def oldest_sync_point(self) -> int | None:
        """The furthest-behind registered reader, or None when none."""
        return min(self._sync_points.values()) if self._sync_points else None

    # ----------------------------------------------------------- maintenance
    def compact(self) -> int:
        """Compact every shard's delta logs; returns entries dropped.

        The keep-latest-per-id squeeze always runs; log entries at or
        below the oldest registered sync point are truncated, so the store
        never drops an entry a registered reader still needs.  With no
        registered readers, compaction stays fully lossless.
        """
        floor = self.oldest_sync_point()
        return sum(s.compact(floor) for s in self.shards.values())

    def plan_repair(self) -> RepairPlan:
        """What re-replication is needed, without doing it.

        For every *live* shard with missed versions, reconcile its peers'
        delta logs since its oldest miss, keep the rows the shard owns
        (any replica rank), and diff against the shard's own row versions
        — the tasks list exactly the copies it is behind on.  Shards
        still down are reported in ``stale_shards`` only once revived,
        and nobody is while a quorum of shards is down: a missed row's
        every fresh copy may then be unreachable, so the copies made do
        not prove the shard current and its ledger entry must stay.
        """
        plan = RepairPlan()
        provable = len(self._down) < self.quorum
        for sid in sorted(self._missed):
            if sid in self._down or not self._missed[sid]:
                continue
            if provable:
                plan.stale_shards.append(sid)
            since = min(self._missed[sid]) - 1
            shard = self.shards[sid]
            peers = [p for p in self.live_shard_ids if p != sid]
            tables = sorted(
                {t for p in peers for t in self.shards[p].tables}
            )
            for table in tables:
                parts = self._slices(
                    table, since, peers, primary_only=False, charge=False
                )
                if not parts:
                    continue
                ids, rows, versions = self._reconcile_parts(parts)
                owners = self.placement.replica_owners(
                    table, ids, self.replication
                )
                owned = (owners == sid).any(axis=1)
                if not owned.any():
                    continue
                ids, rows, versions = ids[owned], rows[owned], versions[owned]
                primary = owners[owned, 0] == sid
                mine = shard.pull_rows_versions(table, ids, charge=False)
                have = (
                    np.zeros(ids.size, dtype=np.int64)
                    if mine is None
                    else mine[2]
                )
                behind = versions > have
                if not behind.any():
                    continue
                plan.tasks.append(
                    RepairTask(
                        shard_id=sid,
                        table=table,
                        ids=ids[behind],
                        rows=rows[behind],
                        versions=versions[behind],
                        primary=primary[behind],
                    )
                )
        plan.rows_to_copy = sum(t.num_rows for t in plan.tasks)
        plan.bytes_to_copy = plan.rows_to_copy * self.row_bytes
        return plan

    def repair(self, plan: RepairPlan | None = None) -> RepairReport:
        """Re-replicate stale rows onto every live replica; heal the ledger.

        Best-effort under over-quorum loss: rows with no fresh live
        source cannot be copied (the quorum contract only covers
        schedules that keep a majority of each row's replicas alive).
        Copied rows land with their original versions and delta-log
        entries, so downstream pulls from the healed replica serve them.
        """
        if plan is None:
            plan = self.plan_repair()
        for task in plan.tasks:
            self.shards[task.shard_id].ingest(
                task.table, task.ids, task.rows, task.versions, task.primary
            )
        for sid in plan.stale_shards:
            self._missed.pop(sid, None)
        return RepairReport(
            rows_copied=plan.rows_to_copy,
            bytes_copied=plan.bytes_to_copy,
            shards_healed=list(plan.stale_shards),
        )

    def _migrate_to(self, new_placement: ShardPlacement) -> RebalanceReport:
        if self._down:
            raise RuntimeError(
                "cannot rebalance with shards down: revive (and repair) "
                f"{sorted(self._down)} first"
            )
        rows_total = len(self)
        # Reconciled world state per table — under replication the copies
        # may be staggered (a revived-but-unrepaired replica), so sources
        # are per-row freshest, which makes rebalancing double as repair
        # for every row it moves.
        tables = sorted({t for s in self.shards.values() for t in s.tables})
        world: dict[str, DeltaSlice] = {}
        for table in tables:
            parts = []
            for sid in self.shard_ids:
                exported = self.shards[sid].export_table(table)
                if exported is not None and exported[0].size:
                    parts.append(exported)
            if parts:
                world[table] = self._reconcile_parts(parts)
        old_ids = set(self.shards)
        self.placement = new_placement
        self._directories.clear()  # the one change that moves owners or slots
        self._epoch.bump()
        new_ids = set(new_placement.shard_ids)
        for sid in sorted(new_ids - old_ids):
            self.shards[sid] = ParameterShard(
                sid, self.row_bytes, row_dtype=self.row_dtype, epoch=self._epoch
            )
        rows_moved = 0
        for table, (ids, rows, versions) in world.items():
            owners = new_placement.replica_owners(
                table, ids, self.replication
            )
            for sid in sorted(new_ids):
                shard = self.shards[sid]
                desired_mask = (owners == sid).any(axis=1)
                desired = ids[desired_mask]
                primary = owners[:, 0] == sid
                current = shard.resident_ids(table)
                to_drop = current[~np.isin(current, desired)]
                if to_drop.size:
                    shard.drop(table, to_drop)
                add_mask = desired_mask & ~np.isin(ids, current)
                # Rows that stay may have changed rank under the new ring.
                stay = desired_mask & ~add_mask
                shard.retag_primary(table, ids[stay], primary[stay])
                if add_mask.any():
                    shard.ingest(
                        table, ids[add_mask], rows[add_mask],
                        versions[add_mask], primary[add_mask],
                    )
                    rows_moved += int(add_mask.sum())
        for sid in old_ids - new_ids:
            del self.shards[sid]
            self._missed.pop(sid, None)  # nothing left to repair there
        return RebalanceReport(
            shard_ids=self.shard_ids,
            rows_moved=rows_moved,
            rows_total=rows_total,
            bytes_moved=rows_moved * self.row_bytes,
        )

    def add_shard(self) -> RebalanceReport:
        """Grow the ring by one shard (id one past the largest), migrating
        all R copies of the keys it now owns (and only those)."""
        return self._migrate_to(self.placement.with_shard_added(max(self.shards) + 1))

    def remove_shard(self, shard_id: int) -> RebalanceReport:
        """Drain one shard; its replica ranges remap, everyone else's stay."""
        if shard_id not in self.shards:
            raise ValueError(f"unknown shard {shard_id}")
        if len(self.shards) - 1 < self.replication:
            raise ValueError(
                f"removing shard {shard_id} would leave fewer shards than "
                f"replication={self.replication}"
            )
        return self._migrate_to(self.placement.with_shard_removed(shard_id))

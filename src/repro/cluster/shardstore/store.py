"""The sharded parameter store: the Fig. 2 KV tier, array-native.

``ShardedParameterStore`` partitions ``(table, row_id)`` keys across N
:class:`ParameterShard` instances via the splitmix64 consistent-hash
:class:`ShardPlacement` — byte-identical placement in every process of the
fleet, unlike the seed store's salted ``hash()``.  Publishes partition their
index batch per shard in one vectorized pass (one owner lookup + one
argsort); pulls slice each shard's delta log, so ``pull_delta(since)`` costs
O(changed rows) rather than the seed's O(all rows) dict scan.  Version
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
  reconcile per row by version, so :meth:`pull_delta` and
  :meth:`pull_rows` transparently fail over to the freshest live copy;
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

from ...core.dtypes import SERVE, as_float32_rows, as_float64_rows
from ...obs.metrics import registry as _obs_registry
from ...obs.recorder import flight_recorder as _flight_recorder
from .placement import ShardPlacement
from .shard import DeltaSlice, ParameterShard, ShardStats

__all__ = [
    "QuorumError",
    "RebalanceReport",
    "RepairTask",
    "RepairPlan",
    "RepairReport",
    "ShardedParameterStore",
]

_REG = _obs_registry()
_PUBLISHES = _REG.counter(
    "shardstore.store.publishes", help="version bumps (publish events)"
)
_ROWS_WRITTEN = _REG.counter(
    "shardstore.store.rows_written", help="rows written across all publishes"
)
_VERSION = _REG.gauge(
    "shardstore.store.version", help="current global store version"
)
_RESIDENT_ROWS = _REG.gauge(
    "shardstore.store.resident_rows", help="rows resident across all shards"
)
_NUM_SHARDS = _REG.gauge(
    "shardstore.store.num_shards", help="live shard count"
)
_SHARDS_DOWN = _REG.gauge(
    "shardstore.store.shards_down", help="shards currently killed/unreachable"
)
_REPLICATION_LAG = _REG.gauge(
    "shardstore.store.replication_lag",
    help="missed (shard, version) publish applications awaiting repair",
)
_QUORUM_FAILURES = _REG.counter(
    "shardstore.store.quorum_failures",
    help="publishes refused for missing their write quorum",
)
_ROWS_REPAIRED = _REG.counter(
    "shardstore.store.rows_repaired",
    help="row copies re-replicated onto stale replicas",
)


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

    tasks: list[RepairTask] = field(default_factory=list)
    stale_shards: list[int] = field(default_factory=list)
    rows_to_copy: int = 0
    bytes_to_copy: int = 0

    @property
    def is_empty(self) -> bool:
        return not self.tasks and not self.stale_shards


@dataclass
class RepairReport:
    """What one :meth:`ShardedParameterStore.repair` actually copied."""

    rows_copied: int
    bytes_copied: int
    shards_healed: list[int]


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
        Row lane of every resident block: float32 (the default, the
        model plane's :data:`repro.core.dtypes.SERVE` lane) takes float64
        rows through a *checked* downcast at publish time
        (:func:`repro.core.dtypes.as_float32_rows`) that raises when any
        value moves past ``downcast_rtol``; float64 stores rows exactly.
    downcast_rtol : float, optional
        Tolerance of the publish-time float32 downcast; ignored on a
        float64 store.
    replication : int, optional
        Copies per key (the next R distinct ring owners).  1 (default)
        keeps the single-copy fast paths bit-for-bit; R > 1 turns on
        quorum publishes, version-reconciled reads and repair.
    auto_compact_every : int or None, optional
        When set, run :meth:`compact` automatically after every N-th
        version bump, so delta logs stay bounded without anyone calling
        maintenance by hand.
    virtual_nodes : int, optional
        Ring points per shard.
    seed : int, optional
        Placement ring seed (must match across the fleet).
    """

    def __init__(
        self,
        num_shards: int = 8,
        row_bytes: int | None = 128,
        row_dim: int | None = None,
        row_dtype=SERVE.row_dtype,
        downcast_rtol: float = 1e-6,
        replication: int = 1,
        auto_compact_every: int | None = None,
        virtual_nodes: int = 64,
        seed: int = 0,
    ) -> None:
        if num_shards <= 0:
            raise ValueError("need at least one shard")
        if not 1 <= replication <= num_shards:
            raise ValueError(
                f"replication {replication} must be in [1, {num_shards}]"
            )
        if auto_compact_every is not None and auto_compact_every <= 0:
            raise ValueError("auto_compact_every must be positive")
        self.row_dtype = np.dtype(row_dtype)
        if self.row_dtype.kind != "f":
            raise TypeError(f"row_dtype must be a float lane, got {row_dtype}")
        if row_bytes is None:
            row_bytes = (row_dim or 16) * self.row_dtype.itemsize
        self.row_bytes = row_bytes
        self.row_dim = row_dim
        self.downcast_rtol = downcast_rtol
        self.replication = replication
        self.auto_compact_every = auto_compact_every
        self.version = 0
        self.placement = ShardPlacement(
            list(range(num_shards)), virtual_nodes=virtual_nodes, seed=seed
        )
        self.shards: dict[int, ParameterShard] = {
            sid: ParameterShard(sid, row_bytes, row_dtype=self.row_dtype)
            for sid in range(num_shards)
        }
        self._dims: dict[str, int] = {}
        self._down: set[int] = set()
        # Hinted-handoff ledger: store version -> list per shard of
        # publishes that shard failed to apply (down or fault-dropped).
        self._missed: dict[int, list[int]] = {}
        self._armed_drops: dict[int, int] = {}
        self._sync_points: dict[int, int] = {}
        self._next_sync_token = 1

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

    def missed_versions(self, shard_id: int) -> list[int]:
        """Acknowledged store versions ``shard_id`` has not applied."""
        return list(self._missed.get(shard_id, ()))

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
        if _REG.enabled:
            _SHARDS_DOWN.set(len(self._down))
            _flight_recorder().record(
                "shardstore.store",
                "shard_killed",
                f"shard {shard_id} down ({len(self._down)} of "
                f"{self.num_shards})",
                shard_id=shard_id,
            )

    def revive_shard(self, shard_id: int) -> None:
        """Bring a killed shard back, stale: run :meth:`repair` to heal it."""
        if shard_id not in self._down:
            raise ValueError(f"shard {shard_id} is not down")
        self._down.discard(shard_id)
        if _REG.enabled:
            _SHARDS_DOWN.set(len(self._down))
            _flight_recorder().record(
                "shardstore.store",
                "shard_revived",
                f"shard {shard_id} back, "
                f"{len(self._missed.get(shard_id, ()))} versions behind",
                shard_id=shard_id,
            )

    def arm_publish_drop(self, shard_id: int, publishes: int = 1) -> None:
        """Make ``shard_id`` silently drop its next N publish applications.

        The fault-injection hook (:class:`repro.cluster.faults.FaultPlane`
        arms it from ``drop_publish`` events): the shard stays live but
        fails to apply, exactly like a lost message — quorum accounting
        and the missed-version ledger treat it the same as a down shard.
        """
        if shard_id not in self.shards:
            raise ValueError(f"unknown shard {shard_id}")
        if publishes <= 0:
            raise ValueError("publishes must be positive")
        self._armed_drops[shard_id] = (
            self._armed_drops.get(shard_id, 0) + publishes
        )

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
        if self.row_dtype == np.dtype(np.float32):
            rows = as_float32_rows(rows, name="rows", rtol=self.downcast_rtol)
        else:
            rows = as_float64_rows(rows, name="rows")
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
                block = shard.block(table)
                if block is not None:
                    block.rewiden(width)
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

    def _scatter_shards(
        self,
        table: str,
        ids: np.ndarray,
        rows: np.ndarray,
        owner_flat: np.ndarray,
        row_idx: np.ndarray,
        rank0: np.ndarray,
        version: int,
    ) -> int:
        """One partition pass over the flattened ``(row, rank)`` writes.

        A row's replica owners are distinct shards, so grouping the
        flattened matrix by shard still hands every shard unique ids —
        one ingest per shard instead of one per ``(rank, shard)``, which
        amortizes the slot-table searchsorted cost over R-times-larger
        batches.  ``rank0`` marks the writes landing on a row's primary;
        each shard stores it as the row's primary bit.
        """
        if owner_flat.size == 0:
            return 0
        # Narrow ids sort ~4x faster (radix kicks in for <=16-bit keys).
        sort_key = owner_flat
        if int(owner_flat[owner_flat.argmax()]) <= np.iinfo(np.uint16).max:
            sort_key = owner_flat.astype(np.uint16)
        order = np.argsort(sort_key, kind="stable")
        owner_flat, row_idx, rank0 = owner_flat[order], row_idx[order], rank0[order]
        bounds = np.flatnonzero(np.r_[True, owner_flat[1:] != owner_flat[:-1]])
        written = 0
        for start, stop in zip(bounds, np.r_[bounds[1:], owner_flat.size]):
            take = row_idx[start:stop]
            written += self.shards[int(owner_flat[start])].publish(
                table, ids[take], rows[take], version, rank0[start:stop]
            )
        return written

    def _apply_publish(
        self,
        table: str,
        ids: np.ndarray,
        rows: np.ndarray,
        owners: np.ndarray,
        mask: np.ndarray | None,
        version: int,
    ) -> int:
        rows = self._reconcile_width(table, rows)
        if ids.size == 0:
            return 0
        owner_flat = owners.ravel()
        row_idx = np.repeat(
            np.arange(ids.size, dtype=np.int64), self.replication
        )
        rank0 = np.zeros(owners.shape, dtype=bool)
        rank0[:, 0] = True
        rank0 = rank0.ravel()
        if mask is not None:
            sel = mask.ravel()
            owner_flat, row_idx, rank0 = owner_flat[sel], row_idx[sel], rank0[sel]
        written = self._scatter_shards(
            table, ids, rows, owner_flat, row_idx, rank0, version
        )
        if mask is not None and not mask.all():
            for sid in np.unique(owners[~mask]):
                ledger = self._missed.setdefault(int(sid), [])
                if not ledger or ledger[-1] != version:
                    ledger.append(version)
        return written

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
                indices, rows = self._dedupe_last(indices, rows)
                owners = self.placement.replica_owners(
                    table, indices, self.replication
                )
            else:
                owners = np.empty((0, self.replication), dtype=np.int64)
            prepared.append((table, indices, rows, owners))
        drops = self._consume_armed_drops()
        version = self.version + 1
        masks: list[np.ndarray | None] = []
        failed: tuple[str, int] | None = None
        for table, indices, _, owners in prepared:
            mask = self._apply_mask(owners, drops) if indices.size else None
            if mask is not None and failed is None:
                got = int(mask.sum(axis=1).min())
                if got < self.quorum:
                    failed = (table, got)
            masks.append(mask)
        if failed is not None:
            table, got = failed
            if _REG.enabled:
                _QUORUM_FAILURES.inc()
                _flight_recorder().record(
                    "shardstore.store",
                    "quorum_failure",
                    f"publish v{version} on {table!r} refused "
                    f"({got}/{self.quorum} replicas)",
                    table=table,
                    got=got,
                    needed=self.quorum,
                )
            raise QuorumError(table, version, self.quorum, got)
        self.version = version
        written = 0
        for (table, indices, rows, owners), mask in zip(prepared, masks):
            written += self._apply_publish(
                table, indices, rows, owners, mask, version
            )
        self._note_publish(written)
        if (
            self.auto_compact_every
            and version % self.auto_compact_every == 0
        ):
            self.compact()
        return version

    def _note_publish(self, written: int) -> None:
        """Fold one publish event into the process metrics registry."""
        if not _REG.enabled:
            return
        _PUBLISHES.inc()
        _ROWS_WRITTEN.add(written)
        _VERSION.set(self.version)
        _RESIDENT_ROWS.set(len(self))
        _NUM_SHARDS.set(self.num_shards)
        _REPLICATION_LAG.set(self.replication_lag)

    # ----------------------------------------------------------------- reads
    @staticmethod
    def _reconcile_parts(parts: list[DeltaSlice]) -> DeltaSlice:
        """Merge per-replica ``(ids, rows, versions)`` slices per-row.

        Each id keeps its highest-versioned copy — the read-side half of
        the quorum protocol: whichever live replica is freshest for a row
        wins, so a dead primary never hides an acknowledged write that
        survives on its peers.
        """
        ids = np.concatenate([p[0] for p in parts])
        rows = np.concatenate([p[1] for p in parts], axis=0)
        versions = np.concatenate([p[2] for p in parts])
        order = np.lexsort((versions, ids))
        ids, rows, versions = ids[order], rows[order], versions[order]
        last = np.r_[ids[1:] != ids[:-1], True]
        return ids[last], rows[last], versions[last]

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

    def pull_rows(
        self, table: str, indices: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Point lookups across shards, freshest live replica per row.

        Parameters
        ----------
        table : str
            Table to read.
        indices : numpy.ndarray of int64
            Row ids to fetch.

        Returns
        -------
        found_mask : numpy.ndarray of bool
            Which ids were resident on some live replica.
        rows : numpy.ndarray
            ``(len(indices), dim)`` payloads; zeros where missed.
        """
        indices = np.asarray(indices, dtype=np.int64)
        mask = np.zeros(indices.size, dtype=bool)
        out = np.zeros((indices.size, self.dim_of(table)), dtype=self.row_dtype)
        if indices.size == 0:
            return mask, out
        if self.replication == 1 and not self._down:
            owners = self.placement.shard_of(table, indices)
            for sid in np.unique(owners):
                sel = owners == sid
                result = self.shards[int(sid)].pull_rows(table, indices[sel])
                if result is None:
                    continue
                found, rows = result
                sub = np.flatnonzero(sel)[found]
                mask[sub] = True
                out[sub] = rows[found]
            return mask, out
        owners = self.placement.replica_owners(
            table, indices, self.replication
        )
        best = np.zeros(indices.size, dtype=np.int64)
        for k in range(self.replication):
            col = owners[:, k]
            for sid in np.unique(col):
                if int(sid) in self._down:
                    continue
                sel = np.flatnonzero(col == sid)
                result = self.shards[int(sid)].pull_rows_versions(
                    table, indices[sel]
                )
                if result is None:
                    continue
                found, rows, versions = result
                fresher = found & (versions > best[sel])
                sub = sel[fresher]
                mask[sub] = True
                out[sub] = rows[fresher]
                best[sub] = versions[fresher]
        return mask, out

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

    def delta_volume_bytes(self, table: str, since_version: int) -> int:
        """Upper bound on the bytes a delta pull reads (no accounting).

        Counts every live replica's log slice: what the reconciled pull
        reads while a shard is down or suspect.  A healthy pull reads
        each row once, from its primary — ``1/replication`` of this.
        """
        return self.row_bytes * sum(
            self.shards[sid].changed_count(table, since_version)
            for sid in self.live_shard_ids
        )

    def delta_shard_volumes(
        self, table: str, since_version: int
    ) -> dict[int, int]:
        """Per-shard byte volume of a prospective delta pull."""
        return {
            sid: self.shards[sid].changed_count(table, since_version)
            * self.row_bytes
            for sid in self.live_shard_ids
        }

    # ---------------------------------------------------------- sync points
    def register_sync_point(self, version: int | None = None) -> int:
        """Register a reader's sync point; returns its token.

        The oldest registered sync point is the compaction watermark:
        :meth:`compact` never truncates log entries a registered reader
        still needs.  Readers update via :meth:`update_sync_point` after
        each pull and release with :meth:`unregister_sync_point` — a
        reader that stops pulling without unregistering deliberately pins
        the watermark (that is the guard working, not a leak).
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

    def unregister_sync_point(self, token: int) -> None:
        self._sync_points.pop(token, None)

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

    def repair(self, plan: RepairPlan | None = None, tracer=None) -> RepairReport:
        """Re-replicate stale rows onto every live replica; heal the ledger.

        Best-effort under over-quorum loss: rows with no fresh live
        source cannot be copied (the quorum contract only covers
        schedules that keep a majority of each row's replicas alive).
        Copied rows land with their original versions and delta-log
        entries, so downstream pulls from the healed replica serve them.
        """
        if tracer is not None:
            with tracer.span("shardstore.store.repair") as span:
                report = self._repair(plan)
                span.attrs["rows"] = report.rows_copied
                span.attrs["bytes"] = report.bytes_copied
                span.attrs["shards"] = len(report.shards_healed)
            return report
        return self._repair(plan)

    def _repair(self, plan: RepairPlan | None) -> RepairReport:
        if plan is None:
            plan = self.plan_repair()
        for task in plan.tasks:
            self.shards[task.shard_id].ingest(
                task.table, task.ids, task.rows, task.versions, task.primary
            )
        for sid in plan.stale_shards:
            self._missed.pop(sid, None)
        report = RepairReport(
            rows_copied=plan.rows_to_copy,
            bytes_copied=plan.bytes_to_copy,
            shards_healed=list(plan.stale_shards),
        )
        if _REG.enabled:
            _ROWS_REPAIRED.add(report.rows_copied)
            _REPLICATION_LAG.set(self.replication_lag)
            if report.shards_healed:
                _flight_recorder().record(
                    "shardstore.store",
                    "repair",
                    f"re-replicated {report.rows_copied} rows onto "
                    f"{len(report.shards_healed)} stale shards",
                    rows=report.rows_copied,
                    bytes=report.bytes_copied,
                    shards=len(report.shards_healed),
                )
        return report

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
        new_ids = set(new_placement.shard_ids)
        for sid in sorted(new_ids - old_ids):
            self.shards[sid] = ParameterShard(
                sid, self.row_bytes, row_dtype=self.row_dtype
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
        report = RebalanceReport(
            shard_ids=self.shard_ids,
            rows_moved=rows_moved,
            rows_total=rows_total,
            bytes_moved=rows_moved * self.row_bytes,
        )
        if _REG.enabled:
            _NUM_SHARDS.set(self.num_shards)
            _RESIDENT_ROWS.set(len(self))
            _flight_recorder().record(
                "shardstore.store",
                "rebalance",
                f"ring now {self.num_shards} shards",
                rows_moved=report.rows_moved,
                rows_total=report.rows_total,
                moved_fraction=round(report.moved_fraction, 6),
            )
        return report

    def add_shard(self, shard_id: int | None = None) -> RebalanceReport:
        """Grow the ring by one shard, migrating all R copies of the keys
        it now owns (and only those)."""
        if shard_id is None:
            shard_id = max(self.shards) + 1
        return self._migrate_to(self.placement.with_shard_added(shard_id))

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

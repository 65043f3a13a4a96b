"""Vectorized hot-path kernels shared across the serving/training stack.

LiveUpdate's steady-state work is dominated by three id-granular
operations: mapping sparse ids to LoRA slots (every adapted lookup and
every gradient step), hot-index membership checks (every served batch),
and fleet routing (every request).  Expressed per id in Python these cap
throughput at a few hundred thousand ids/sec; expressed as whole-array
kernels they run at memory bandwidth.  This module holds the
primitives everything else builds on:

* :func:`splitmix64` — a process-stable avalanche hash (the builtin
  ``hash()`` is salted per process via ``PYTHONHASHSEED`` and must never
  decide ring placement or slot assignment);
* :class:`IdSlotTable` — an array-native id -> slot map (sorted key
  array + ``np.searchsorted``) with batch lookup/insert/remove, the
  replacement for the former dict-based ``_SlotMap``;
* :func:`group_rows_sum` — duplicate-sparse scatter-add: per-occurrence
  rows accumulated into unique-id rows, the backward of a lookup;
* :func:`freshest_per_id` — the one "freshest copy wins, a later copy
  wins a tie" rule every replica merge and row cache applies;
* :class:`TouchedRows` — an epoch-stamped touched-row tracker (O(batch)
  to stamp, one vectorized scan to drain, one byte per row) replacing
  the per-id Python ``set`` used for delta accounting.

All are deliberately dependency-free (NumPy only) so every layer —
``core``, ``serving``, ``dlrm`` — can import them without cycles.
"""

from __future__ import annotations

import numpy as np

from .dtypes import as_float_rows, as_uint64_keys

__all__ = [
    "splitmix64",
    "hash_combine",
    "stable_str_hash",
    "sorted_find",
    "is_sorted_unique",
    "run_starts",
    "gather_in_range",
    "IdSlotTable",
    "group_rows_sum",
    "freshest_per_id",
    "TouchedRows",
]

# Multiplicative avalanche constants (splitmix64 finaliser).
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(values: np.ndarray, seed: int = 0) -> np.ndarray:
    """Vectorised splitmix64 avalanche hash over integer arrays.

    Deterministic across processes, platforms and ``PYTHONHASHSEED`` —
    the property the routing and shard-placement rings rely on.

    Parameters
    ----------
    values : numpy.ndarray of int
        Input ids; any integer dtype, any shape.
    seed : int, optional
        Stream selector; mixed in via the golden-ratio increment so
        different seeds give independent hash families.

    Returns
    -------
    numpy.ndarray of uint64
        Avalanched hashes, same shape as ``values``.
    """
    offset = (seed * _GOLDEN + 1) % (1 << 64)
    with np.errstate(over="ignore"):
        x = as_uint64_keys(values) + np.uint64(offset)
        x ^= x >> np.uint64(30)
        x *= _MIX1
        x ^= x >> np.uint64(27)
        x *= _MIX2
        x ^= x >> np.uint64(31)
    return x


def hash_combine(a: np.ndarray, b: np.ndarray, seed: int = 0) -> np.ndarray:
    """Stable hash of an ``(a, b)`` pair of integer arrays.

    Parameters
    ----------
    a, b : numpy.ndarray of int
        Pair components; broadcast against each other.
    seed : int, optional
        Hash-family selector, as in :func:`splitmix64`.

    Returns
    -------
    numpy.ndarray of uint64
        One stable hash per broadcast pair; permuting the pair or shifting
        either component yields unrelated values.
    """
    with np.errstate(over="ignore"):
        mixed = splitmix64(a, seed) ^ (
            as_uint64_keys(b) * np.uint64(_GOLDEN)
        )
    return splitmix64(mixed, seed + 1)


def stable_str_hash(text: str) -> int:
    """Process-stable 64-bit hash of a string (table names, route labels).

    UTF-8 bytes are packed little-endian into ``uint64`` words, each word is
    mixed with its position (so permutations don't collide), and the words
    are XOR-folded through one final avalanche.  Deterministic across
    processes, platforms and ``PYTHONHASHSEED`` — use this, never the salted
    builtin ``hash()``, wherever a string key decides placement.
    """
    data = text.encode("utf-8")
    padded = data + b"\x00" * (-len(data) % 8)
    if padded:
        words = np.frombuffer(padded, dtype="<u8")
    else:
        words = np.zeros(1, dtype=np.uint64)
    positions = np.arange(words.size, dtype=np.uint64)
    mixed = hash_combine(words, positions, 0)
    folded = np.bitwise_xor.reduce(mixed) ^ np.uint64(len(data))
    return int(splitmix64(folded.reshape(1), 1)[0])


def sorted_find(keys: np.ndarray, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batch membership in a sorted key array.

    Parameters
    ----------
    keys : numpy.ndarray
        Sorted, unique key array to probe.
    queries : numpy.ndarray
        Values to look up; any shape.

    Returns
    -------
    found : numpy.ndarray of bool
        Whether each query is present in ``keys``.
    pos : numpy.ndarray of int64
        Index of each found query in ``keys``; an arbitrary *safe* index
        (0) where not found, so gathers never fault.
    """
    if keys.size == 0 or queries.size == 0:
        return (
            np.zeros(queries.shape, dtype=bool),
            np.zeros(queries.shape, dtype=np.int64),
        )
    pos = np.searchsorted(keys, queries)
    in_range = pos < keys.size
    pos_c = np.where(in_range, pos, 0)
    found = in_range & (keys[pos_c] == queries)
    return found, pos_c


def is_sorted_unique(ids: np.ndarray) -> bool:
    """Whether a 1-D id array is strictly increasing (sorted, no repeats).

    One vectorized compare: the cheap way for a consumer of an already
    resolved id set (``group_rows_sum``'s output, a drained touched-row
    list) to skip its own ``np.unique``.
    """
    return ids.size < 2 or bool((ids[1:] > ids[:-1]).all())


def run_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Start index of every run of equal values in a sorted, non-empty array."""
    first = np.empty(sorted_keys.size, dtype=bool)
    first[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
    return np.flatnonzero(first)


def gather_in_range(lane: np.ndarray, ids: np.ndarray, fill) -> np.ndarray:
    """``lane[ids]``, with ``fill`` where an id is outside ``[0, len(lane))``.

    Two reductions decide whether the whole batch is in range — the
    serving case — and then the lookup is one gather; only a batch that
    does carry a stray id pays for the mask and the scatter.
    """
    if ids.size == 0 or (ids.min() >= 0 and ids.max() < lane.size):
        return lane[ids]
    out = np.full(ids.shape, fill, dtype=lane.dtype)
    valid = (ids >= 0) & (ids < lane.size)
    out[valid] = lane[ids[valid]]
    return out


class IdSlotTable:
    """Array-native id -> slot map with a bounded slot budget.

    Keys are kept in one sorted ``int64`` array with a parallel slot
    array, so membership and translation are a single
    ``np.searchsorted`` per batch.  When the id universe is known
    (``universe`` given — embedding tables have a fixed row count), a
    flat direct-address array shadows the sorted pair and translation
    becomes a single gather with no search at all; ids outside
    ``[0, universe)`` simply miss.  Free slots are the released ones, a
    LIFO stack, plus a next-fresh counter: a grant reuses released slots
    most-recently-freed first, then hands out fresh slots ``n, n+1, ...``
    in ascending order.  That is the allocation order of the former
    dict/free-list implementation, and a table that never released a slot
    holds no free-slot array at all.

    Keys and slots are both int64, so the dense direct-address lane costs
    8 bytes per universe row.  Like the hot-index mask, that is
    metadata outside the paper's <2 % adapter overhead figure, which
    counts only the ``A`` and ``B`` factors.

    Parameters
    ----------
    capacity : int
        Maximum simultaneous id -> slot mappings (the slot budget).
    universe : int, optional
        Id space bound enabling the dense direct-address lane; ``None``
        keeps the purely sorted representation for unbounded ids.
    """

    def __init__(self, capacity: int, universe: int | None = None) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if universe is not None and universe <= 0:
            raise ValueError("universe must be positive when set")
        self.capacity = capacity
        self.universe = universe
        self._keys = np.empty(0, dtype=np.int64)
        self._vals = np.empty(0, dtype=np.int64)
        self._dense = (
            None if universe is None else np.full(universe, -1, dtype=np.int64)
        )
        self._released = np.empty(0, dtype=np.int64)
        self._n_released = 0
        self._next_fresh = 0

    # ----------------------------------------------------------------- state
    @property
    def size(self) -> int:
        return int(self._keys.size)

    @property
    def keys(self) -> np.ndarray:
        """Active ids, ascending."""
        return self._keys.copy()

    @property
    def slots(self) -> np.ndarray:
        """Slot per active id, aligned with :attr:`keys`."""
        return self._vals.copy()

    @property
    def nbytes(self) -> int:
        """Map footprint: keys + slots + released stack + dense lane."""
        total = self._keys.nbytes + self._vals.nbytes + self._released.nbytes
        if self._dense is not None:
            total += self._dense.nbytes
        return int(total)

    def clear(self) -> None:
        if self._dense is not None:
            self._dense[self._keys] = -1  # O(active), not O(universe)
        self._keys = np.empty(0, dtype=np.int64)
        self._vals = np.empty(0, dtype=np.int64)
        self._released = np.empty(0, dtype=np.int64)
        self._n_released = 0
        self._next_fresh = 0

    def rebuild_sorted(self, keys: np.ndarray, capacity: int) -> None:
        """Repack in place: ``keys`` (sorted, unique) take slots ``0..n-1``.

        Reuses the dense lane instead of reallocating a universe-sized
        array on every capacity resize.
        """
        keys = np.asarray(keys, dtype=np.int64)
        n = keys.size
        if n > capacity:
            raise ValueError("more keys than capacity")
        if self._dense is not None:
            self._dense[self._keys] = -1
        self.capacity = capacity
        self._keys = keys.copy()
        self._vals = np.arange(n, dtype=np.int64)
        if self._dense is not None:
            self._dense[self._keys] = self._vals
        self._released = np.empty(0, dtype=np.int64)
        self._n_released = 0
        self._next_fresh = n

    def grow(self, capacity: int) -> None:
        """Raise the slot budget in place: every active id keeps its slot.

        Slots freed earlier are still reused first; the new slots
        ``old_capacity..capacity-1`` follow, handed out in ascending order.
        """
        if capacity < self.capacity:
            raise ValueError("grow cannot shrink the slot budget")
        self.capacity = capacity

    # ------------------------------------------------------------ free list
    def _pop(self, k: int) -> np.ndarray:
        """``k`` free slots: released ones LIFO, then fresh ascending."""
        reused = min(k, self._n_released)
        out = np.arange(
            self._next_fresh, self._next_fresh + k - reused, dtype=np.int64
        )
        self._next_fresh += k - reused
        if reused:
            top = self._n_released
            self._n_released -= reused
            out = np.concatenate([self._released[top - reused : top][::-1], out])
        return out

    def _push(self, slots: np.ndarray) -> None:
        end = self._n_released + slots.size
        if end > self._released.size:
            stack = np.empty(
                min(max(end, 2 * self._released.size), self.capacity),
                dtype=np.int64,
            )
            stack[: self._n_released] = self._released[: self._n_released]
            self._released = stack
        self._released[self._n_released : end] = slots
        self._n_released = end

    # --------------------------------------------------------------- lookup
    def lookup(self, ids: np.ndarray) -> np.ndarray:
        """Translate ids to slots.

        Parameters
        ----------
        ids : numpy.ndarray of int64
            Ids to translate; any shape.

        Returns
        -------
        numpy.ndarray of int64
            Slot per id, ``-1`` where the id is not in the table (or
            outside the dense lane's universe).
        """
        ids = np.asarray(ids, dtype=np.int64)
        if self._dense is not None:
            return gather_in_range(self._dense, ids, -1)
        out = np.full(ids.shape, -1, dtype=np.int64)
        found, pos = sorted_find(self._keys, ids)
        out[found] = self._vals[pos[found]]
        return out

    def lookup_present(self, ids: np.ndarray) -> np.ndarray:
        """Slot per id for ids the caller KNOWS are in the table.

        Skips the miss handling of :meth:`lookup` (one searchsorted + one
        take); results are undefined for absent ids.  Hot-path primitive
        for delta-log slices, where every logged id is resident by
        construction.
        """
        ids = np.asarray(ids, dtype=np.int64)
        if self._dense is not None:
            return self._dense[ids]
        return self._vals[np.searchsorted(self._keys, ids)]

    def get(self, idx: int) -> int | None:
        """Scalar lookup (compat shim for slow paths and tests)."""
        slot = int(self.lookup(np.array([idx]))[0])
        return None if slot < 0 else slot

    # --------------------------------------------------------------- update
    def insert(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Batch activate: give every id a slot, first come first served.

        Parameters
        ----------
        ids : numpy.ndarray of int64
            Ids to activate; duplicates resolve to one slot, granted at
            the first occurrence.

        Returns
        -------
        slots : numpy.ndarray of int64
            Slot per id, aligned with ``ids``; ``-1`` when the table ran
            out of capacity.
        new_slots : numpy.ndarray of int64
            Slots granted to previously-absent ids, in grant order —
            callers typically need to zero the backing rows.
        """
        ids = np.asarray(ids, dtype=np.int64)
        slots = self.lookup(ids)
        missing = slots < 0
        if self._dense is not None:
            # Out-of-universe ids can never be granted a slot.
            missing &= (ids >= 0) & (ids < self._dense.size)
        if not missing.any():
            return slots, np.empty(0, dtype=np.int64)
        n_free = self._n_released + self.capacity - self._next_fresh
        # Strictly increasing ids (what every batched caller passes) are
        # already unique and in first-occurrence order, which is also
        # ascending: no unique pass, and the grant writes its own slots.
        increasing = ids.ndim == 1 and is_sorted_unique(ids)
        if increasing:
            granted_at = np.flatnonzero(missing)[:n_free]
            granted = ids[granted_at]
        else:
            new_ids, first_pos = np.unique(ids[missing], return_index=True)
            order = np.argsort(first_pos, kind="stable")  # first-occurrence order
            granted = new_ids[order][:n_free]
        if granted.size == 0:
            return slots, np.empty(0, dtype=np.int64)
        new_slots = self._pop(granted.size)
        # Granted ids are absent and unique: each lands at its searchsorted
        # position, and the resident keys fill the rest in order (what
        # np.insert does, without its per-call overhead).  Nothing of the
        # merged length is allocated but the result and one bool mask.
        srt = slice(None) if increasing else np.argsort(granted)
        at = np.searchsorted(self._keys, granted[srt])
        at += np.arange(granted.size, dtype=np.int64)
        resident = np.ones(self._keys.size + granted.size, dtype=bool)
        resident[at] = False
        keys = np.empty(resident.size, dtype=np.int64)
        keys[at] = granted[srt]
        keys[resident] = self._keys
        vals = np.empty(resident.size, dtype=np.int64)
        vals[at] = new_slots[srt]
        vals[resident] = self._vals
        self._keys, self._vals = keys, vals
        if self._dense is not None:
            self._dense[granted] = new_slots
        if increasing:
            slots[granted_at] = new_slots
            return slots, new_slots
        return self.lookup(ids), new_slots

    def remove(self, ids: np.ndarray) -> np.ndarray:
        """Batch deactivate ids.

        Parameters
        ----------
        ids : numpy.ndarray of int64
            Ids to drop; absent ids are ignored.

        Returns
        -------
        numpy.ndarray of int64
            The released slots (pushed onto the released stack,
            most-recently-freed reused first).
        """
        ids = np.unique(np.asarray(ids, dtype=np.int64))
        if ids.size == 0 or self._keys.size == 0:
            return np.empty(0, dtype=np.int64)
        found, pos = sorted_find(self._keys, ids)
        hit = pos[found]
        if hit.size == 0:
            return np.empty(0, dtype=np.int64)
        released = self._vals[hit].copy()
        if self._dense is not None:
            self._dense[self._keys[hit]] = -1
        keep = np.ones(self._keys.size, dtype=bool)
        keep[hit] = False
        self._keys = self._keys[keep]
        self._vals = self._vals[keep]
        self._push(released)
        return released


def group_rows_sum(
    ids: np.ndarray, rows: np.ndarray, num_rows: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Accumulate per-occurrence rows into unique-id rows (scatter-add).

    The backward of a lookup: every occurrence of id ``u`` contributes its
    row to ``u``'s gradient.  With a known universe (embedding tables know
    their row count) no larger than 64x the batch, one ``np.unique`` maps
    ids to compact slots and one flat ``bincount`` over (slot, dim) keys
    sums every element in float64.  Otherwise a single stable argsort
    groups the occurrences and one segment reduction sums them on the
    input lane.

    Parameters
    ----------
    ids : numpy.ndarray of int64
        Flat id stream; duplicates allowed, any order.
    rows : numpy.ndarray
        ``(len(ids), d)`` per-occurrence rows.
    num_rows : int, optional
        Id-universe bound; within 64x the batch it selects the counting
        (float64-accumulating) lane.

    Returns
    -------
    uniq : numpy.ndarray of int64
        Sorted unique ids.
    summed : numpy.ndarray
        ``(len(uniq), d)`` accumulated rows, on ``rows``' float lane
        (the counting lane accumulates in float64 regardless, then
        rounds once back onto the input lane).
    """
    ids = np.asarray(ids, dtype=np.int64)
    rows = as_float_rows(rows, name="rows")
    lane = rows.dtype
    if ids.size == 0:
        return ids.copy(), np.zeros(
            (0, rows.shape[1] if rows.ndim == 2 else 0), dtype=lane
        )
    dim = rows.shape[1]
    # Counting lane: accumulate in float64 and round once onto the input
    # lane.  The bound only picks that lane over the sort lane's
    # input-lane sums (moving it moves exact rows); the unique pass is
    # one small sort over the batch, never a pass over the universe.
    if num_rows is not None and num_rows <= 64 * ids.size:
        uniq, slots = np.unique(ids, return_inverse=True)
        # One flat bincount over (slot, dim) keys accumulates every
        # element of every occurrence in a single counting pass.
        keys = slots.reshape(-1, 1) * dim + np.arange(dim, dtype=np.int64)
        summed = np.bincount(
            keys.ravel(), weights=rows.ravel(), minlength=uniq.size * dim
        )
        # bincount always counts in float64; one rounding back onto the
        # input lane keeps the output dtype contract.
        return uniq, summed.reshape(uniq.size, dim).astype(lane, copy=False)
    # Sort lane: one stable argsort puts every id's occurrences side by
    # side in occurrence order; each run reduces to one row (a run of one
    # is the row itself).
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    starts = run_starts(sorted_ids)
    summed = np.add.reduceat(rows.take(order, axis=0), starts, axis=0)
    return sorted_ids[starts], summed


def freshest_per_id(
    ids: np.ndarray, rows: np.ndarray, versions: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Keep each id's highest-versioned copy; a later copy wins a tie.

    The read-side rule of the quorum protocol and of every row cache built
    on it: concatenate the copies in arrival order, and one stable
    ``lexsort`` by (id, version) puts each id's winner last in its run.

    Parameters
    ----------
    ids : numpy.ndarray of int64
        Row ids, any order, repeats allowed.
    rows : numpy.ndarray
        ``(len(ids), d)`` payloads.
    versions : numpy.ndarray of int64
        Version each copy was written at.

    Returns
    -------
    tuple of numpy.ndarray
        ``(ids, rows, versions)``: ids ascending and unique, each with its
        winning copy; fresh arrays, never views of the inputs.
    """
    order = np.lexsort((versions, ids))
    ids = ids[order]
    last = np.empty(ids.size, dtype=bool)
    last[-1:] = True
    np.not_equal(ids[1:], ids[:-1], out=last[:-1])
    keep = order[last]
    return ids[last], rows[keep], versions[keep]


class TouchedRows:
    """Epoch-stamped touched-row tracker for delta accounting.

    One ``uint8`` stamp per row: a row is "touched" when its stamp equals
    the current epoch.  Stamping a batch is a single vectorized scatter
    (duplicates free), draining is one compare + ``flatnonzero`` scan, and
    :meth:`clear` just bumps the epoch — O(1) until the 8-bit epoch space
    wraps, when the lane is memset once every 255 clears.

    Memory cost is 1 byte/row — under 1% of a float64 row at ``dim >= 16``
    (1.6% at ``dim = 8``), inside the paper's <2% metadata budget.

    Parameters
    ----------
    num_rows : int
        Id universe (embedding-table row count).
    """

    def __init__(self, num_rows: int) -> None:
        if num_rows <= 0:
            raise ValueError("num_rows must be positive")
        self._lane = np.zeros(num_rows, dtype=np.uint8)
        self._epoch = 1

    # ----------------------------------------------------------------- state
    @property
    def num_rows(self) -> int:
        return int(self._lane.size)

    @property
    def nbytes(self) -> int:
        """Tracker footprint (the memory-policy overhead)."""
        return int(self._lane.nbytes)

    def stamp(self, ids: np.ndarray) -> None:
        """Mark rows as touched; duplicate ids cost nothing extra."""
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size:
            self._lane[ids] = self._epoch

    def ids(self) -> np.ndarray:
        """Sorted ids touched since the last :meth:`clear`."""
        return np.flatnonzero(self._lane == self._epoch)

    def mask(self) -> np.ndarray:
        """Dense boolean touched mask, ``(num_rows,)``."""
        return self._lane == self._epoch

    def count(self) -> int:
        return int(np.count_nonzero(self._lane == self._epoch))

    def fraction(self) -> float:
        return self.count() / self.num_rows

    # ---------------------------------------------------------------- update
    def clear(self) -> None:
        """Forget all stamps.  O(1) except one memset per 255 clears."""
        if self._epoch == 255:
            self._lane[:] = 0
            self._epoch = 1
        else:
            self._epoch += 1

    def drain(self) -> np.ndarray:
        """Return the touched ids and clear in one call."""
        out = self.ids()
        self.clear()
        return out

    def resize(self, num_rows: int) -> None:
        """Grow the universe; existing stamps survive, new rows start clean."""
        if num_rows < self.num_rows:
            raise ValueError("TouchedRows only grows; rebuild to shrink")
        if num_rows > self.num_rows:
            grown = np.zeros(num_rows, dtype=np.uint8)
            grown[: self._lane.size] = self._lane
            self._lane = grown

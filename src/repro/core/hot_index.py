"""Hot Index Filter (Fig. 7, inference path step 2).

On every serving request, LiveUpdate must decide per sparse id whether the
LoRA adjustment applies: "hot" ids (recently updated by the online trainer)
are served ``W_base[i] + A[i] B``; cold ids take the plain base-table path.
The filter is a per-field membership table with optional time-based expiry
so entries fade once the trainer stops touching them.

Storage is array-native either way; the layout depends on whether the id
universe is known:

* *dense* (``num_rows`` given, the production serving configuration): one
  ``float64`` last-mark timestamp per table row, so ``mark`` is a scatter
  and ``is_hot`` is one range-checked gather + compare — O(batch) with no
  search and no mask unless a batch carries an out-of-universe id;
* *sparse* (unbounded ids): a sorted ``int64`` id array plus parallel
  timestamps, with batched sorted-merge upserts and one
  ``np.searchsorted`` per membership batch.

Neither path runs a per-id Python loop on the serving path.  Stamps are
``float64`` clock values, so the dense layout costs 8 bytes per table
row.  That is metadata outside the paper's <2 % overhead figure, which
counts only the adapters' ``A`` and ``B`` factors
(:meth:`repro.core.trainer.LoRATrainer.memory_bytes`).
"""

from __future__ import annotations

import numpy as np

from .kernels import gather_in_range, is_sorted_unique, sorted_find

__all__ = ["HotIndexFilter"]


class _FieldTable:
    """Sorted ids + last-mark timestamps for one sparse field."""

    __slots__ = ("ids", "stamps")

    def __init__(self) -> None:
        self.ids = np.empty(0, dtype=np.int64)
        self.stamps = np.empty(0, dtype=np.float64)

    def __len__(self) -> int:
        return int(self.ids.size)

    @property
    def nbytes(self) -> int:
        return int(self.ids.nbytes + self.stamps.nbytes)

    def upsert(self, ids: np.ndarray, stamp: float) -> None:
        """Set the timestamp of every id in ``ids`` to ``stamp``."""
        if not is_sorted_unique(ids):
            ids = np.unique(ids)
        if ids.size == 0:
            return
        if self.ids.size == 0:
            self.ids = ids.copy()
            self.stamps = np.full(ids.size, stamp, dtype=np.float64)
            return
        present, pos = sorted_find(self.ids, ids)
        self.stamps[pos[present]] = stamp
        fresh = ids[~present]
        if fresh.size:
            insert_at = np.searchsorted(self.ids, fresh)
            self.ids = np.insert(self.ids, insert_at, fresh)
            self.stamps = np.insert(self.stamps, insert_at, stamp)

    def membership(self, ids: np.ndarray) -> np.ndarray:
        """Last-mark timestamp per query id (-inf where never marked)."""
        stamps = np.full(ids.shape, -np.inf, dtype=np.float64)
        found, pos = sorted_find(self.ids, ids)
        stamps[found] = self.stamps[pos[found]]
        return stamps

    def clear(self) -> None:
        self.ids = np.empty(0, dtype=np.int64)
        self.stamps = np.empty(0, dtype=np.float64)


class _DenseFieldTable:
    """Timestamp per table row; for fields with a known id universe."""

    __slots__ = ("stamps",)

    def __init__(self, num_rows: int) -> None:
        self.stamps = np.full(num_rows, -np.inf, dtype=np.float64)

    def __len__(self) -> int:
        return int((self.stamps > -np.inf).sum())

    @property
    def nbytes(self) -> int:
        return int(self.stamps.nbytes)

    def upsert(self, ids: np.ndarray, stamp: float) -> None:
        if ids.size and (ids.min() < 0 or ids.max() >= self.stamps.size):
            ids = ids[(ids >= 0) & (ids < self.stamps.size)]
        self.stamps[ids] = stamp

    def membership(self, ids: np.ndarray) -> np.ndarray:
        return gather_in_range(self.stamps, ids, -np.inf)

    def clear(self) -> None:
        self.stamps[:] = -np.inf


class HotIndexFilter:
    """Per-field recently-updated-id membership filter.

    Args:
        num_fields: number of sparse feature fields.
        expiry_s: optional age limit; entries older than this (relative to
            the most recent :meth:`mark` time) stop matching.  ``None``
            disables expiry (entries persist until :meth:`clear`).
        num_rows: optional id-universe size per field (or one size for
            all).  When given, that field uses the dense O(1)-per-id
            layout; ids outside ``[0, num_rows)`` are treated as cold.
    """

    def __init__(
        self,
        num_fields: int,
        expiry_s: float | None = None,
        num_rows: int | list[int] | None = None,
    ) -> None:
        if num_fields <= 0:
            raise ValueError("need at least one field")
        if expiry_s is not None and expiry_s <= 0:
            raise ValueError("expiry must be positive when set")
        self.num_fields = num_fields
        self.expiry_s = expiry_s
        if num_rows is None:
            sizes: list[int | None] = [None] * num_fields
        elif isinstance(num_rows, int):
            sizes = [num_rows] * num_fields
        else:
            if len(num_rows) != num_fields:
                raise ValueError("num_rows must align with num_fields")
            sizes = list(num_rows)
        self._marked: list[_FieldTable | _DenseFieldTable] = [
            _FieldTable() if n is None else _DenseFieldTable(n) for n in sizes
        ]
        self._now = 0.0

    @property
    def nbytes(self) -> int:
        """Filter footprint across all fields (the metadata budget line)."""
        return sum(table.nbytes for table in self._marked)

    def mark(self, field: int, ids: np.ndarray, now: float | None = None) -> None:
        """Record ids as hot at time ``now`` (trainer update callback)."""
        if now is not None:
            self._now = max(self._now, now)
        self._marked[field].upsert(np.asarray(ids, dtype=np.int64), self._now)

    def advance(self, now: float) -> None:
        """Move the filter's clock forward (expiry reference)."""
        self._now = max(self._now, now)

    def is_hot(self, field: int, ids: np.ndarray) -> np.ndarray:
        """Boolean mask: which of ``ids`` are currently hot."""
        ids = np.asarray(ids, dtype=np.int64)
        stamps = self._marked[field].membership(ids)
        if self.expiry_s is None:
            return stamps > -np.inf
        return stamps >= self._now - self.expiry_s

    def __call__(self, field: int, ids: np.ndarray) -> np.ndarray:
        """Alias so the filter plugs into :meth:`LoRACollection.overlay`."""
        return self.is_hot(field, ids)

    def clear(self, field: int | None = None) -> None:
        if field is None:
            for table in self._marked:
                table.clear()
        else:
            self._marked[field].clear()

"""Last-level-cache reference model.

Models an L3 slice as an LRU cache over embedding rows (the unit of locality
that matters for DLRM serving).  :class:`LRUCache` is the sequential, exact
oracle the batched engines in :mod:`repro.hardware.vectorcache` are checked
against; :class:`CacheStats` aggregates their per-access hit masks.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

__all__ = ["CacheStats", "LRUCache"]


@dataclass
class CacheStats:
    """Hit/miss counters for one access stream."""

    hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def merge(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(self.hits + other.hits, self.misses + other.misses)

    @classmethod
    def from_mask(cls, hit_mask: np.ndarray) -> "CacheStats":
        """Aggregate view of a per-access hit mask."""
        hits = int(np.asarray(hit_mask).sum())
        return cls(hits=hits, misses=int(np.asarray(hit_mask).size) - hits)

    def record(self, hit_mask: np.ndarray) -> "CacheStats":
        """Fold a per-access hit mask into this accumulator; returns self."""
        hits = int(np.asarray(hit_mask).sum())
        self.hits += hits
        self.misses += int(np.asarray(hit_mask).size) - hits
        return self


class LRUCache:
    """Byte-capacity LRU cache keyed by arbitrary hashables.

    Args:
        capacity_bytes: total capacity; inserting beyond it evicts LRU
            entries.  Zero capacity is legal (everything misses).
    """

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity_bytes = capacity_bytes
        self._entries: OrderedDict[object, int] = OrderedDict()
        self._used = 0

    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def num_entries(self) -> int:
        return len(self._entries)

    def __contains__(self, key: object) -> bool:
        return key in self._entries

    def access(self, key: object, size_bytes: int) -> bool:
        """Touch ``key``; returns True on hit.  Misses insert the entry."""
        if key in self._entries:
            self._entries.move_to_end(key)
            return True
        if size_bytes > self.capacity_bytes:
            return False  # un-cacheable object; bypasses the cache
        self._entries[key] = size_bytes
        self._used += size_bytes
        while self._used > self.capacity_bytes:
            _, evicted = self._entries.popitem(last=False)
            self._used -= evicted
        return False

    def access_many(
        self, keys: np.ndarray, size_bytes: int, stats: CacheStats | None = None
    ) -> np.ndarray:
        """Touch a sequence of same-sized keys; returns the per-key hit mask.

        Callers used to re-probe with ``__contains__`` to learn which keys
        hit; the mask makes that information first-class.  The old
        aggregate view stays available: pass a :class:`CacheStats`
        accumulator (updated in place) or fold the mask through
        :meth:`CacheStats.from_mask`.
        """
        keys = np.asarray(keys)
        hit_mask = np.empty(keys.shape[0], dtype=bool)
        for j, k in enumerate(keys):
            hit_mask[j] = self.access(int(k), size_bytes)
        if stats is not None:
            stats.record(hit_mask)
        return hit_mask

    def invalidate(self, key: object) -> bool:
        """Drop one entry if present (write-invalidate from another agent)."""
        size = self._entries.pop(key, None)
        if size is None:
            return False
        self._used -= size
        return True

    def clear(self) -> None:
        self._entries.clear()
        self._used = 0

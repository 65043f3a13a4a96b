"""The sequential byte-capacity LRU the batched cache engines replaced.

One ``OrderedDict`` operation per access.  ``repro.hardware.vectorcache``
reproduces it bit-for-bit (hit/miss sequence, ``used_bytes``, eviction
order): ``tests/test_vectorcache.py`` checks ``BatchLRUCache`` against it
and ``IntervalCache``'s hits against its hits.
"""

from collections import OrderedDict

import numpy as np

from repro.hardware.cache import CacheStats


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
        """Touch a sequence of same-sized keys; returns the per-key hit mask,
        folded into ``stats`` in place when one is given."""
        keys = np.asarray(keys)
        hit_mask = np.empty(keys.shape[0], dtype=bool)
        for j, k in enumerate(keys):
            hit_mask[j] = self.access(int(k), size_bytes)
        if stats is not None:
            hits = int(hit_mask.sum())
            stats.hits += hits
            stats.misses += hit_mask.size - hits
        return hit_mask

    def clear(self) -> None:
        self._entries.clear()
        self._used = 0

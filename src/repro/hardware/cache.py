"""Hit/miss aggregates for the cache models.

The batched engines in :mod:`repro.hardware.vectorcache` return per-access
hit masks; :class:`CacheStats` is their aggregate view.  The sequential
one-key-at-a-time LRU those engines reproduce bit-for-bit is a test oracle
(``tests/reference/cache.py``), not part of the package.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CacheStats"]


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

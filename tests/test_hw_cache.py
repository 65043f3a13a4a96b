"""Tests for the sequential LRU cache oracle."""

import numpy as np
import pytest

from reference.cache import LRUCache
from repro.hardware.cache import CacheStats


class TestLRUCache:
    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(-1)

    def test_miss_then_hit(self):
        c = LRUCache(1000)
        assert c.access("a", 100) is False
        assert c.access("a", 100) is True

    def test_eviction_at_capacity(self):
        c = LRUCache(250)
        c.access("a", 100)
        c.access("b", 100)
        c.access("c", 100)  # evicts "a"
        assert "a" not in c
        assert "b" in c and "c" in c
        assert c.used_bytes <= 250

    def test_lru_order_respected(self):
        c = LRUCache(250)
        c.access("a", 100)
        c.access("b", 100)
        c.access("a", 100)  # refresh a
        c.access("c", 100)  # evicts b, not a
        assert "a" in c and "b" not in c

    def test_oversized_object_bypasses(self):
        c = LRUCache(100)
        assert c.access("big", 200) is False
        assert "big" not in c
        assert c.used_bytes == 0

    def test_zero_capacity_all_miss(self):
        c = LRUCache(0)
        assert c.access("a", 1) is False
        assert c.access("a", 1) is False

    def test_clear(self):
        c = LRUCache(1000)
        c.access("a", 100)
        c.clear()
        assert c.num_entries == 0 and c.used_bytes == 0

    def test_access_many_returns_hit_mask(self):
        c = LRUCache(10_000)
        keys = np.array([1, 2, 1, 2, 3])
        mask = c.access_many(keys, 100)
        np.testing.assert_array_equal(mask, [False, False, True, True, False])

    def test_access_many_accumulates_stats_in_place(self):
        c = LRUCache(10_000)
        stats = CacheStats()
        c.access_many(np.array([1, 2]), 100, stats=stats)
        c.access_many(np.array([2, 3]), 100, stats=stats)
        assert stats.hits == 1 and stats.misses == 3


class TestCacheStats:
    def test_empty_ratio_zero(self):
        assert CacheStats().hit_ratio == 0.0


class TestAccessManyEdges:
    def test_zero_length_stream(self):
        c = LRUCache(1000)
        mask = c.access_many(np.empty(0, dtype=np.int64), 10)
        assert mask.size == 0 and c.num_entries == 0

    def test_capacity_smaller_than_one_row(self):
        # every access bypasses (un-cacheable rows), nothing ever hits
        c = LRUCache(4)
        assert not c.access_many(np.array([1, 1, 2, 1]), 10).any()
        assert c.num_entries == 0 and c.used_bytes == 0

    def test_duplicate_keys_within_one_batch(self):
        c = LRUCache(10 * 8)
        mask = c.access_many(np.array([5, 5, 5, 7, 5]), 8)
        np.testing.assert_array_equal(
            mask, [False, True, True, False, True]
        )

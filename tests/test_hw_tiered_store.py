"""Tests for the HBM/DRAM tiered embedding store."""

import numpy as np
import pytest

from repro.hardware.tiered_store import (
    DRAM_LATENCY_US,
    HBM_LATENCY_US,
    TieredEmbeddingStore,
    TieredStoreConfig,
    TierStats,
)


@pytest.fixture
def weight():
    return np.arange(100 * 4, dtype=float).reshape(100, 4)


@pytest.fixture
def store(weight):
    return TieredEmbeddingStore(
        weight, TieredStoreConfig(hbm_capacity_rows=10)
    )


class TestLookup:
    def test_returns_correct_rows(self, store, weight):
        rows, _ = store.lookup(np.array([3, 7]))
        np.testing.assert_array_equal(rows[0], weight[3])
        np.testing.assert_array_equal(rows[1], weight[7])

    def test_first_touch_is_dram_then_hbm(self, store):
        store.lookup(np.array([5]))
        assert store.stats.dram_hits == 1
        store.lookup(np.array([5]))
        assert store.stats.hbm_hits == 1

    def test_latency_orders_by_tier(self, store):
        _, cold = store.lookup(np.array([5]))       # DRAM
        _, warm = store.lookup(np.array([5]))       # HBM
        assert warm < cold

    def test_promotion_respects_capacity(self, store):
        for i in range(30):
            store.lookup(np.array([i]))
        assert len(store._hbm) == 10

    def test_promotion_can_be_disabled(self, weight):
        store = TieredEmbeddingStore(
            weight,
            TieredStoreConfig(hbm_capacity_rows=10, promote_on_access=False),
        )
        store.lookup(np.array([5]))
        store.lookup(np.array([5]))
        assert store.stats.hbm_hits == 0
        assert store.stats.dram_hits == 2


    def test_every_read_is_local(self, store):
        store.lookup(np.arange(100))
        store.lookup(np.arange(0, 100, 7))
        # each read is an HBM or a DRAM hit: there is no remote tier
        assert store.stats.hbm_hits + store.stats.dram_hits == 100 + 15

    def test_hbm_evicts_the_least_recent_row(self, store):
        store.lookup(np.arange(10))
        store.lookup(np.array([0]))  # 0 becomes the most recent
        store.lookup(np.array([10]))  # evicts 1, the least recent
        hits = store.stats.hbm_hits
        store.lookup(np.array([0]))
        assert store.stats.hbm_hits == hits + 1
        store.lookup(np.array([1]))
        assert store.stats.hbm_hits == hits + 1


class TestPreload:
    def test_preload_pins_hot_rows(self, store):
        admitted = store.preload_hot(np.arange(5))
        assert admitted == 5
        store.lookup(np.array([0, 1]))
        assert store.stats.hbm_hits == 2

    def test_preload_stops_at_capacity(self, store):
        assert store.preload_hot(np.arange(50)) == 10


class TestStats:
    def test_ratios(self):
        s = TierStats(hbm_hits=6, dram_hits=4)
        assert s.total == 10
        assert s.hbm_hit_ratio == pytest.approx(0.6)

    def test_empty_ratios(self):
        s = TierStats()
        assert s.hbm_hit_ratio == 0.0

    def test_mean_latency_tracks_mix(self, store):
        store.lookup(np.array([1]))   # DRAM
        store.lookup(np.array([1]))   # HBM
        mean = store.mean_lookup_latency_us()
        assert mean == pytest.approx((DRAM_LATENCY_US + HBM_LATENCY_US) / 2)

    def test_hot_placement_lowers_mean_latency(self, weight):
        """The hierarchy's purpose: hot-in-HBM placement wins."""
        rng = np.random.default_rng(0)
        ids = rng.integers(0, 20, 500)  # hot set of 20 ids
        preloaded = TieredEmbeddingStore(
            weight, TieredStoreConfig(hbm_capacity_rows=20, promote_on_access=False)
        )
        preloaded.preload_hot(np.arange(20))
        cold = TieredEmbeddingStore(
            weight, TieredStoreConfig(hbm_capacity_rows=20, promote_on_access=False)
        )
        preloaded.lookup(ids)
        cold.lookup(ids)
        assert (
            preloaded.mean_lookup_latency_us() < cold.mean_lookup_latency_us()
        )

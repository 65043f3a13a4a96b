"""Tests for PCA rank adaptation (Eq. 2) and usage-based pruning (Alg. 1)."""

import numpy as np
import pytest

from repro.core.pruning import UsageTracker, dynamic_tau_from_counts
from repro.core.rank_adaptation import (
    RankMonitor,
    cumulative_variance,
    rank_for_variance,
)


def frequency(tracker, idx):
    """Updates of ``idx`` inside the tracker's window."""
    counts = tracker._counts
    return int(counts[idx]) if 0 <= idx < counts.size else 0


def _lowrank_matrix(n, d, rank, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, rank)) @ rng.normal(size=(rank, d))
    if noise:
        m = m + noise * rng.normal(size=(n, d))
    return m


class TestCumulativeVariance:
    def test_monotone_to_one(self):
        cum = cumulative_variance(_lowrank_matrix(50, 16, 4, noise=0.1))
        assert np.all(np.diff(cum) >= -1e-12)
        assert cum[-1] == pytest.approx(1.0)

    def test_exact_lowrank_saturates_at_rank(self):
        cum = cumulative_variance(_lowrank_matrix(50, 16, 3))
        assert cum[2] == pytest.approx(1.0, abs=1e-9)

    def test_zero_matrix(self):
        cum = cumulative_variance(np.zeros((5, 4)))
        assert (cum == 1.0).all()

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            cumulative_variance(np.zeros(5))


class TestRankForVariance:
    def test_exact_rank_recovered(self):
        m = _lowrank_matrix(100, 16, 3)
        assert rank_for_variance(m, alpha=0.99) == 3

    def test_alpha_monotone(self):
        m = _lowrank_matrix(100, 16, 8, noise=0.2)
        r80 = rank_for_variance(m, 0.8)
        r95 = rank_for_variance(m, 0.95)
        assert r80 <= r95

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            rank_for_variance(np.ones((2, 2)), alpha=0.0)

    def test_empty_matrix_rank_one(self):
        assert rank_for_variance(np.zeros((0, 4))) == 1


class TestRankMonitor:
    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            RankMonitor(alpha=0.0)

    def test_fallback_when_unobserved(self):
        m = RankMonitor()
        assert m.recommended_rank(fallback=8) == 8
        assert m.recommended_rank(fallback=1) == 2  # clamped like a rank

    def test_average_with_ceiling(self):
        m = RankMonitor(alpha=0.99)
        m._observed = [3, 4]
        assert m.recommended_rank() == 4  # ceil(3.5)

    def test_clamping(self):
        m = RankMonitor()
        m._observed = [1]
        assert m.recommended_rank() == 2
        m._observed = [100]
        assert m.recommended_rank() == 64

    def test_window_eviction(self):
        m = RankMonitor()
        for _ in range(10):
            m.observe(_lowrank_matrix(20, 8, 2))
        assert len(m._observed) == 8  # the window keeps the last 8

    def test_observe_returns_instantaneous_rank(self):
        m = RankMonitor(alpha=0.99)
        r = m.observe(_lowrank_matrix(50, 16, 3))
        assert r == 3


class TestDynamicTau:
    def test_top_fraction_boundary(self):
        counts = np.arange(100, 0, -1)  # 100..1
        tau = dynamic_tau_from_counts(counts, hot_fraction=0.10)
        assert tau == 91  # the 10th largest count

    def test_empty_counts(self):
        assert dynamic_tau_from_counts(np.array([])) == 1.0

    def test_fraction_validated(self):
        with pytest.raises(ValueError):
            dynamic_tau_from_counts(np.ones(5), hot_fraction=0.0)

    def test_floor_at_one(self):
        assert dynamic_tau_from_counts(np.zeros(10) + 0.5) == 1.0


class TestUsageTracker:
    def test_validation(self):
        with pytest.raises(ValueError):
            UsageTracker(0, 1.0, 1, 10)
        with pytest.raises(ValueError):
            UsageTracker(10, 1.0, 5, 2)

    def test_frequency_counting(self):
        t = UsageTracker(window_iters=10, tau_prune=2, c_min=1, c_max=100)
        t.record_update(np.array([1, 2]))
        t.record_update(np.array([1]))
        assert frequency(t, 1) == 2
        assert frequency(t, 2) == 1
        assert frequency(t, 9) == 0

    def test_duplicates_within_iteration_count_once(self):
        t = UsageTracker(10, 1, 1, 100)
        t.record_update(np.array([5, 5, 5]))
        assert frequency(t, 5) == 1

    def test_window_expiry(self):
        t = UsageTracker(window_iters=2, tau_prune=1, c_min=1, c_max=100)
        t.record_update(np.array([1]))
        t.record_update(np.array([2]))
        t.record_update(np.array([3]))  # iteration with id 1 expires
        assert frequency(t, 1) == 0
        assert t.num_tracked == 2

    def test_active_set_threshold(self):
        t = UsageTracker(10, tau_prune=2, c_min=1, c_max=100)
        for _ in range(3):
            t.record_update(np.array([7]))
        t.record_update(np.array([8]))
        active = t.active_set()
        assert active.tolist() == [7]

    def test_decide_clamps_capacity(self):
        t = UsageTracker(10, tau_prune=1, c_min=5, c_max=8)
        d = t.decide()
        assert d.new_capacity == 5  # empty active set -> floor
        for i in range(20):
            t.record_update(np.array([i]))
        d = t.decide()
        assert d.new_capacity == 8  # ceiling

    def test_refresh_tau(self):
        t = UsageTracker(100, tau_prune=1, c_min=1, c_max=1000)
        for rep, idx in [(5, 0), (3, 1), (1, 2)]:
            for _ in range(rep):
                t.record_update(np.array([idx]))
        tau = t.refresh_tau_from_window(hot_fraction=0.34)
        assert tau == 5.0  # top-1 of 3 tracked ids

"""Tests for the request arrival process."""

import numpy as np
import pytest

from repro.data.arrivals import ArrivalConfig, BurstEpisode, RequestArrivalProcess


class TestBurstEpisode:
    def test_active_window(self):
        b = BurstEpisode(start_s=10.0, duration_s=5.0, multiplier=3.0)
        assert b.active(12.0)
        assert not b.active(9.9)
        assert not b.active(15.0)

    def test_vectorized(self):
        b = BurstEpisode(start_s=10.0, duration_s=5.0, multiplier=3.0)
        mask = b.active(np.array([5.0, 12.0, 20.0]))
        assert mask.tolist() == [False, True, False]


class TestArrivalProcess:
    def test_validation(self):
        p = RequestArrivalProcess()
        with pytest.raises(ValueError):
            p.counts_per_interval(0)
        with pytest.raises(ValueError):
            p.counts_per_interval(10, interval_s=0)

    def test_mean_rate_matches_config(self):
        cfg = ArrivalConfig(
            base_qps=1000.0,
            diurnal_amplitude=0.0,
            burst_rate_per_hour=0.0,
            seed=1,
        )
        counts = RequestArrivalProcess(cfg).counts_per_interval(600.0)
        assert counts.mean() == pytest.approx(1000.0, rel=0.05)

    def test_diurnal_modulation_changes_rate_by_hour(self):
        cfg = ArrivalConfig(
            base_qps=1000.0,
            diurnal_amplitude=0.5,
            burst_rate_per_hour=0.0,
            seed=2,
        )
        # one day from noon in 10-minute intervals: 21:00 is t = 9 h
        # (interval 54), 09:00 is t = 21 h (interval 126)
        counts = RequestArrivalProcess(cfg).counts_per_interval(
            86400.0, interval_s=600.0
        )
        assert counts[48:60].mean() > counts[120:132].mean()

    def test_bursts_raise_peak_to_mean(self):
        calm_cfg = ArrivalConfig(burst_rate_per_hour=0.0, seed=3)
        bursty_cfg = ArrivalConfig(
            burst_rate_per_hour=30.0, burst_multiplier=5.0, seed=3
        )
        calm = RequestArrivalProcess(calm_cfg).peak_to_mean()
        bursty = RequestArrivalProcess(bursty_cfg).peak_to_mean()
        assert bursty > calm

    def test_deterministic_per_seed(self):
        a = RequestArrivalProcess(ArrivalConfig(seed=9)).counts_per_interval(100.0)
        b = RequestArrivalProcess(ArrivalConfig(seed=9)).counts_per_interval(100.0)
        np.testing.assert_array_equal(a, b)

"""Tests for the DRAM bandwidth model and latency model."""

import numpy as np
import pytest

from repro.hardware.latency import InferenceLatencyModel, percentile
from repro.hardware.memory import MemoryBandwidthModel, MemoryTraffic


class TestMemoryTraffic:
    def test_addition(self):
        t = MemoryTraffic(1.0, 2.0) + MemoryTraffic(3.0, 4.0)
        assert t.read_gbps == 4.0 and t.write_gbps == 6.0
        assert t.total_gbps == 10.0


class TestMemoryBandwidthModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            MemoryBandwidthModel(peak_gbps=0)

    def test_utilization_capped(self):
        m = MemoryBandwidthModel(peak_gbps=10)
        assert m.utilization(MemoryTraffic(read_gbps=100)) == 0.9

    def test_write_penalty_counts_more(self):
        m = MemoryBandwidthModel(peak_gbps=100)
        reads = m.utilization(MemoryTraffic(read_gbps=10))
        writes = m.utilization(MemoryTraffic(write_gbps=10))
        assert writes == pytest.approx(1.5 * reads)

    def test_latency_grows_with_load(self):
        m = MemoryBandwidthModel(peak_gbps=100)
        idle = m.access_latency_ns(MemoryTraffic())
        loaded = m.access_latency_ns(MemoryTraffic(read_gbps=60))
        assert idle == pytest.approx(m.base_latency_ns)
        assert loaded > idle

    def test_inference_traffic_scales_with_misses(self):
        hi = MemoryBandwidthModel.inference_traffic(1000, 100, 128, 0.2)
        lo = MemoryBandwidthModel.inference_traffic(1000, 100, 128, 0.8)
        assert hi.read_gbps == pytest.approx(4 * lo.read_gbps)
        assert hi.write_gbps == 0.0

    def test_training_traffic_has_writes(self):
        t = MemoryBandwidthModel.training_traffic(
            1000, 100, 128, 0.0, write_fraction=0.5
        )
        assert t.write_gbps > 0
        assert t.read_gbps == pytest.approx(t.write_gbps)


class TestLatencyModel:
    def test_hit_ratio_validated(self):
        m = InferenceLatencyModel()
        with pytest.raises(ValueError):
            m.mean_lookup_ms(1.5, MemoryTraffic())
        with pytest.raises(ValueError):
            m.mean_lookup_ms(0.5, MemoryTraffic(), remote_fraction=2.0)

    def test_higher_hit_ratio_is_faster(self):
        m = InferenceLatencyModel()
        t = MemoryTraffic(read_gbps=10)
        assert m.mean_lookup_ms(0.9, t) < m.mean_lookup_ms(0.1, t)

    def test_remote_fraction_slows_misses(self):
        m = InferenceLatencyModel()
        t = MemoryTraffic()
        local = m.mean_lookup_ms(0.5, t, remote_fraction=0.0)
        remote = m.mean_lookup_ms(0.5, t, remote_fraction=1.0)
        assert remote > local

    def test_contention_slows_lookups(self):
        m = InferenceLatencyModel(memory=MemoryBandwidthModel(peak_gbps=50))
        calm = m.mean_lookup_ms(0.5, MemoryTraffic(read_gbps=1))
        busy = m.mean_lookup_ms(0.5, MemoryTraffic(read_gbps=40))
        assert busy > calm

    def test_sample_shapes_and_positivity(self):
        m = InferenceLatencyModel(seed=1)
        s = m.sample_latencies(1000, 0.7, MemoryTraffic())
        assert s.shape == (1000,)
        assert (s > 0).all()

    def test_deterministic_with_seed(self):
        a = InferenceLatencyModel(seed=5).sample_latencies(10, 0.5, MemoryTraffic())
        b = InferenceLatencyModel(seed=5).sample_latencies(10, 0.5, MemoryTraffic())
        np.testing.assert_array_equal(a, b)


class TestPercentile:
    def test_empty_is_nan(self):
        assert np.isnan(percentile(np.array([]), 99))

    def test_median(self):
        assert percentile(np.array([1.0, 2.0, 3.0]), 50) == 2.0

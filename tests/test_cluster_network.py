"""Tests for the network model and collective cost models."""

import numpy as np
import pytest

from repro.cluster.collectives import (
    CollectiveCostModel,
    fit_log_trend,
)
from repro.cluster.network import GBE_100, INFINIBAND_EDR

TB = 1024 ** 4
GB = 1024 ** 3


class TestNetworkLink:
    def test_paper_example_20tb_over_100gbe(self):
        """Syncing 20 TB over 100GbE takes over 26 minutes (Section I)."""
        seconds = GBE_100.transfer_seconds(20 * TB)
        assert seconds > 26 * 60

    def test_paper_example_200tb_over_4_hours(self):
        """Full 200 TB sync takes over four hours (Section II-C)."""
        assert GBE_100.transfer_seconds(200 * TB) > 4 * 3600

    def test_zero_volume_costs_latency_only(self):
        assert GBE_100.transfer_seconds(0) == pytest.approx(
            GBE_100.latency_ms / 1e3
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            GBE_100.transfer_seconds(-1)

    def test_transfer_is_affine_in_volume(self):
        one = GBE_100.transfer_seconds(TB) - GBE_100.transfer_seconds(0)
        three = GBE_100.transfer_seconds(3 * TB) - GBE_100.transfer_seconds(0)
        assert three == pytest.approx(3 * one)
        assert one == pytest.approx(TB / (100e9 / 8 * 0.9))

    def test_fabric_beats_inter_cluster_link(self):
        assert INFINIBAND_EDR.bytes_per_second > GBE_100.bytes_per_second
        assert INFINIBAND_EDR.transfer_seconds(0) < GBE_100.transfer_seconds(0)


class TestCollectives:
    def test_single_node_free(self):
        m = CollectiveCostModel()
        assert m.tree_merge(1, 1e9) == 0.0
        assert m.broadcast_tree(1, 1e9) == 0.0

    def test_tree_merge_logarithmic(self):
        m = CollectiveCostModel(INFINIBAND_EDR)
        t4 = m.tree_merge(4, 1 * GB)
        t16 = m.tree_merge(16, 1 * GB)
        t64 = m.tree_merge(64, 1 * GB)
        # doubling log2(N) doubles the time
        assert t16 == pytest.approx(2 * t4, rel=0.01)
        assert t64 == pytest.approx(3 * t4, rel=0.01)

    def test_invalid_node_count(self):
        m = CollectiveCostModel()
        with pytest.raises(ValueError):
            m.tree_merge(0, 1)


class TestLogTrendFit:
    def test_recovers_known_trend(self):
        nodes = np.array([2, 4, 8, 16])
        times = 3.0 + 2.0 * np.log2(nodes)
        a, b = fit_log_trend(nodes, times)
        assert a == pytest.approx(3.0)
        assert b == pytest.approx(2.0)

    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            fit_log_trend(np.array([2]), np.array([1.0]))

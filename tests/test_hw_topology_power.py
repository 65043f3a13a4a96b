"""Tests for CPU topology, power model, and diurnal load trace."""

import numpy as np
import pytest

from repro.hardware.power import CPUPowerModel, DiurnalLoadTrace
from repro.hardware.topology import EPYC_9684X_DUAL, CCD, NodeTopology, Socket


class TestTopology:
    def test_paper_node_shape(self):
        topo = EPYC_9684X_DUAL
        assert topo.num_ccds == 16           # 2 sockets x 8 CCDs
        assert [len(s.ccds) for s in topo.sockets] == [8, 8]
        assert [c.socket_id for c in topo.ccds] == [0] * 8 + [1] * 8

    def test_custom_topology(self):
        ccds = tuple(CCD(ccd_id=i, socket_id=0) for i in range(4))
        topo = NodeTopology(sockets=(Socket(0, ccds),))
        assert topo.num_ccds == 4


class TestPowerModel:
    def test_idle_and_peak(self):
        m = CPUPowerModel()
        assert m.power(0.0) == 180.0
        assert m.power(1.0) == 800.0

    def test_monotone(self):
        m = CPUPowerModel()
        powers = [m.power(u) for u in np.linspace(0, 1, 10)]
        assert all(a < b for a, b in zip(powers, powers[1:]))

    def test_utilization_is_clipped(self):
        m = CPUPowerModel()
        assert m.power(-0.5) == m.power(0.0) == m.idle_w
        assert m.power(2.0) == m.power(1.0) == m.peak_w

    def test_sublinear_curve(self):
        """Half the load costs more than half the dynamic power."""
        m = CPUPowerModel()
        assert m.power(0.5) - m.idle_w > 0.5 * (m.peak_w - m.idle_w)


def _noiseless() -> DiurnalLoadTrace:
    trace = DiurnalLoadTrace()
    trace.noise = 0.0
    return trace


class TestDiurnalTrace:
    def test_peak_stays_under_limit(self):
        util = _noiseless().utilization_at(np.linspace(0, 24, 200))
        assert util.max() <= 0.205
        assert util.max() > 0.18  # reaches its peak

    def test_trough_fraction(self):
        util = _noiseless().utilization_at(np.linspace(0, 24, 200))
        assert util.min() >= 0.35 * 0.20 * 0.9

    def test_evening_peak_exceeds_morning(self):
        t = _noiseless()
        assert t.utilization_at(20.5) > t.utilization_at(6.0)

    def test_sample_day_length(self):
        t = DiurnalLoadTrace()
        samples = t.sample_day(interval_s=3600.0)
        assert len(samples) == 24

    def test_extra_utilization_shifts_curve(self):
        base = _noiseless().sample_day(interval_s=3600.0)
        t2 = _noiseless()
        extra = t2.sample_day(interval_s=3600.0, extra_utilization=0.1)
        diffs = [
            e.utilization - b.utilization for e, b in zip(extra, base)
        ]
        assert all(d == pytest.approx(0.1, abs=1e-9) for d in diffs)

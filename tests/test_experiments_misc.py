"""Tests for utilization, low-rank, memory, and scalability experiments."""

import pytest

from repro.experiments.accuracy import AccuracyConfig
from repro.experiments.lowrank import collect_gradient_spectra, spread_extremes
from repro.experiments.memory import measure_memory_footprints
from repro.experiments.sync_interval import scalability_curve
from repro.experiments.utilization import power_comparison, simulate_day_profile

SMALL = AccuracyConfig(
    table_sizes=(300, 200), num_dense=3, pretrain_steps=60
)


class TestUtilization:
    def test_fig4_peak_utilization_near_20pct(self):
        profile = simulate_day_profile()
        assert 0.15 < profile.peak_utilization <= 0.21
        assert profile.mean_utilization < profile.peak_utilization

    def test_fig18b_extra_load_raises_mean(self):
        base = simulate_day_profile(0.0)
        busy = simulate_day_profile(0.10)
        assert busy.mean_utilization > base.mean_utilization + 0.09

    def test_fig5_power_increase_near_20pct(self):
        pc = power_comparison()
        assert 0.10 < pc.mean_power_increase < 0.30

    def test_energy_positive(self):
        assert simulate_day_profile().energy_kwh > 0


class TestLowRank:
    @pytest.fixture(scope="class")
    def spectra(self):
        return collect_gradient_spectra(
            SMALL, snapshots=3, steps_per_snapshot=8
        )

    def test_one_spectrum_per_table(self, spectra):
        assert len(spectra) == 2

    def test_few_components_capture_most_variance(self, spectra):
        """The paper's O2: <=6 components reach 80% of the variance."""
        for s in spectra:
            curve = s.mean_curve()
            assert curve[min(5, len(curve) - 1)] >= 0.8

    def test_ranks_recorded_per_snapshot(self, spectra):
        assert all(len(s.ranks_at_alpha) == 3 for s in spectra)
        assert all(r >= 1 for s in spectra for r in s.ranks_at_alpha)

    def test_spread_extremes_ordering(self, spectra):
        lo, hi = spread_extremes(spectra)
        assert lo.rank_spread <= hi.rank_spread


class TestMemoryFootprints:
    @pytest.fixture(scope="class")
    def footprints(self):
        return measure_memory_footprints(SMALL, slots=10)

    def test_three_configurations(self, footprints):
        assert [f.label for f in footprints] == [
            "Fixed Rank",
            "+ Dynamic Rank",
            "+ Pruning",
        ]

    def test_dynamic_rank_saves_majority(self, footprints):
        fixed, dyn, _ = footprints
        assert dyn.savings_vs(fixed) > 0.5  # paper: 80-89%

    def test_pruning_reaches_97pct_total(self, footprints):
        fixed, _, full = footprints
        assert full.savings_vs(fixed) > 0.9  # paper: 97-99%

    def test_final_footprint_small_fraction_of_base(self, footprints):
        _, _, full = footprints
        assert full.fraction_of_base < 0.05  # paper target: ~2%


class TestScalability:
    def test_log_scaling_measured_points(self):
        points = {p.num_nodes: p.sync_seconds for p in scalability_curve()}
        # log2 growth: t(16)/t(2) == 4
        assert points[16] / points[2] == pytest.approx(4.0, rel=0.05)

    def test_projection_under_10_minutes(self):
        points = scalability_curve()
        at48 = next(p for p in points if p.num_nodes == 48)
        assert at48.projected
        assert at48.sync_seconds < 600

    def test_projection_continues_trend(self):
        points = scalability_curve()
        measured = [p for p in points if not p.projected]
        projected = [p for p in points if p.projected]
        assert min(p.sync_seconds for p in projected) >= max(
            p.sync_seconds for p in measured
        ) * 0.9


class TestWindowResultConsumers:
    """The serving-window metrics feed the experiment layer directly."""

    @pytest.fixture(scope="class")
    def windows(self):
        from repro.serving.engine import ColocatedNodeSimulator, NodeSimConfig

        sim = ColocatedNodeSimulator(NodeSimConfig(accesses_per_window=10_000, seed=0))
        return {
            "inference only": sim.run_inference_only(),
            "co-located (naive)": sim.run_colocated_naive(),
        }

    def test_utilization_from_windows(self, windows):
        from repro.experiments.utilization import utilization_from_windows

        summary = utilization_from_windows(list(windows.values()))
        assert summary.windows == 2
        assert 0.0 < summary.mean_memory_utilization <= summary.peak_memory_utilization <= 1.5
        assert summary.worst_p99_ms > 0
        assert summary.total_accesses > 0
        assert summary.headroom == pytest.approx(
            1.0 - summary.mean_memory_utilization
        )

    def test_utilization_from_windows_rejects_empty(self):
        from repro.experiments.utilization import utilization_from_windows

        with pytest.raises(ValueError):
            utilization_from_windows([])

    def test_bandwidth_pressure_rows(self, windows):
        from repro.experiments.memory import bandwidth_pressure

        rows = bandwidth_pressure(windows)
        assert [r.label for r in rows] == list(windows)
        naive = rows[1]
        assert naive.traffic_gbps > rows[0].traffic_gbps
        assert naive.p99_ms > rows[0].p99_ms

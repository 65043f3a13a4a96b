"""Tests for the co-located node simulator and SLA monitor."""

from dataclasses import astuple

import numpy as np
import pytest

from repro.hardware.numa import AdaptiveNumaPartitioner
from repro.hardware.topology import EPYC_9684X_DUAL
from repro.serving.engine import ColocatedNodeSimulator, NodeSimConfig
from repro.serving.qos import OUTCOMES, SLAMonitor


@pytest.fixture(scope="module")
def small_sim():
    """Down-scaled simulator so the full test file stays fast."""
    return ColocatedNodeSimulator(NodeSimConfig(accesses_per_window=10_000, seed=0))


@pytest.fixture(scope="module")
def ablation(small_sim):
    return small_sim.ablation()


class TestAblationShape:
    """The Fig. 16 ordering must hold even at test scale."""

    def test_naive_colocations_hurts_p99(self, ablation):
        assert ablation["w/o Opt"].p99_ms > 1.5 * ablation["Only Infer"].p99_ms

    def test_scheduling_restores_p99(self, ablation):
        only = ablation["Only Infer"].p99_ms
        sched = ablation["w/ Scheduling"].p99_ms
        assert sched < 1.15 * only

    def test_full_opt_at_least_as_good_as_scheduling(self, ablation):
        assert (
            ablation["w/ Reuse+Scheduling"].p99_ms
            <= ablation["w/ Scheduling"].p99_ms * 1.05
        )

    def test_naive_collapses_inference_hit_ratio(self, ablation):
        assert (
            ablation["w/o Opt"].inference_hit_ratio
            < ablation["Only Infer"].inference_hit_ratio
        )

    def test_scheduling_protects_inference_cache(self, ablation):
        assert ablation[
            "w/ Scheduling"
        ].inference_hit_ratio == pytest.approx(
            ablation["Only Infer"].inference_hit_ratio, abs=0.05
        )

    def test_reuse_absorbs_trainer_reads(self, ablation):
        assert ablation["w/ Reuse+Scheduling"].reuse_ratio > 0.1
        assert (
            ablation["w/ Reuse+Scheduling"].training_hit_ratio
            > ablation["w/ Scheduling"].training_hit_ratio
        )

    def test_inference_only_has_no_training(self, ablation):
        assert ablation["Only Infer"].training_hit_ratio == 0.0
        assert ablation["Only Infer"].reuse_ratio == 0.0


# Every WindowResult field of the default-config ablation (the
# ``colo_window`` scale), recorded before the simulator's fixed settings
# became module constants.  The shadow buffer (40,000 rows) is smaller
# than the 200,000-key publish stream, so it evicts.  The three training
# rows were re-recorded when the "Only Infer" window stopped drawing the
# trainer streams it never reads; the "Only Infer" rows did not move.
GOLDEN_ABLATION = {
    "interval": {
        "Only Infer": ("inference_only", 0.56004, 0.0, 0.0, 22.525952, 0.3754325333333333, 5.739518809419324, 11.444798228001817, 100000, 0, 0),
        "w/o Opt": ("colocated_naive", 0.33193, 0.2428325, 0.0, 35.75586304, 0.6023922133333333, 13.746848357297518, 26.47387190969925, 100000, 1200000, 0),
        "w/ Scheduling": ("colocated_scheduled", 0.54332, 0.16252833333333333, 0.0, 25.09715797333333, 0.4254323911111111, 6.133913888030785, 11.999170577218539, 100000, 1200000, 0),
        "w/ Reuse+Scheduling": ("colocated_full", 0.54147, 0.3583366666666667, 0.3433375, 24.339673597184, 0.40925679994133335, 6.053264737715269, 11.862716038787623, 100000, 1200000, 0),
    },
    "lru": {
        "Only Infer": ("inference_only", 0.64404, 0.0, 0.0, 18.225152000000005, 0.3037525333333334, 4.918212289448963, 9.867265913165518, 100000, 0, 35596),
        "w/o Opt": ("colocated_naive", 0.35168, 0.26404833333333333, 0.0, 34.70121301333333, 0.5846336711111111, 12.953441877121403, 24.95172042170982, 100000, 1200000, 947974),
        "w/ Scheduling": ("colocated_scheduled", 0.62119, 0.17234583333333334, 0.0, 21.090107733333333, 0.3585644444444444, 5.2519376174070524, 10.319972372538402, 100000, 1200000, 1026970),
        "w/ Reuse+Scheduling": ("colocated_full", 0.61816, 0.35849166666666665, 0.3433375, 20.412937146239997, 0.34381032387999994, 5.217686287451508, 10.286204323735843, 100000, 1200000, 803898),
    },
}


@pytest.mark.parametrize("policy", sorted(GOLDEN_ABLATION))
def test_ablation_golden(policy):
    sim = ColocatedNodeSimulator(NodeSimConfig(cache_policy=policy, seed=0))
    got = {name: astuple(result) for name, result in sim.ablation().items()}
    assert got == GOLDEN_ABLATION[policy]


class TestInferenceOnlyWindows:
    """A window without the trainer draws no trainer stream and builds no
    trainer cache, so it leaves every later training window as it was."""

    @staticmethod
    def _sim(policy="interval"):
        return ColocatedNodeSimulator(
            NodeSimConfig(accesses_per_window=10_000, cache_policy=policy, seed=0)
        )

    def test_leaves_trainer_generators_untouched(self):
        sim = self._sim()
        before = (
            sim._rng.bit_generator.state,
            sim._training_sampler._rng.bit_generator.state,
        )
        served = sim._inference_sampler._rng.bit_generator.state
        sim.run_inference_only()
        assert (
            sim._rng.bit_generator.state,
            sim._training_sampler._rng.bit_generator.state,
        ) == before
        assert sim._inference_sampler._rng.bit_generator.state != served

    def test_builds_only_the_serving_cache(self, monkeypatch):
        sim = self._sim()
        built = []
        make = sim._make_cache
        monkeypatch.setattr(
            sim, "_make_cache", lambda *args: built.append(args) or make(*args)
        )
        sim.run_inference_only()
        assert len(built) == 1
        sim.run_colocated_scheduled()
        assert len(built) == 3

    @pytest.mark.parametrize("policy", ["interval", "lru"])
    def test_training_windows_ignore_the_only_infer_window(self, policy):
        ran = self._sim(policy).ablation()
        only = self._sim(policy)
        only.run_inference_only()
        # A fresh simulator that never ran Only Infer, given only the
        # serving-side generators (request ids and latency samples) as
        # that window leaves them.
        fresh = self._sim(policy)
        for name in ("_inference_sampler", "latency"):
            getattr(fresh, name)._rng.bit_generator.state = getattr(
                only, name
            )._rng.bit_generator.state
        alone = {
            "w/o Opt": fresh.run_colocated_naive(),
            "w/ Scheduling": fresh.run_colocated_scheduled(),
            "w/ Reuse+Scheduling": fresh.run_colocated_full(),
        }
        assert alone == {name: ran[name] for name in alone}


class TestAdaptiveLoop:
    def test_run_adaptive_produces_results(self, small_sim):
        part = AdaptiveNumaPartitioner(
            EPYC_9684X_DUAL,
            min_inference_ccds=4,
            max_training_ccds=4,
            initial_training_ccds=2,
        )
        results = small_sim.run_adaptive(part, cycles=3)
        assert len(results) == 3
        assert len(part.history) == 3


class TestSLAMonitor:
    def test_validation(self):
        with pytest.raises(ValueError):
            SLAMonitor(p99_target_ms=0)

    def test_windows_close_at_size(self):
        mon = SLAMonitor(p99_target_ms=10, window_requests=100)
        reports = mon.observe(np.full(250, 5.0))
        assert len(reports) == 2
        assert len(mon.reports) == 2
        assert all(not r.violated for r in reports)

    def test_violation_detection(self):
        mon = SLAMonitor(p99_target_ms=10, window_requests=100)
        reports = mon.observe(np.full(100, 50.0))
        assert reports[0].violated
        assert mon.violation_rate == 1.0

    def test_percentile_ordering(self):
        mon = SLAMonitor(window_requests=1000)
        rng = np.random.default_rng(0)
        (report,) = mon.observe(rng.exponential(5.0, 1000))
        assert report.p50_ms < report.p95_ms < report.p99_ms


class TestSLAOutcomeClasses:
    """Satellite 2 of ISSUE 10: requests that were hedged, degraded,
    timed out, or shed are counted per window, separately from clean
    ones — tail percentiles alone can't tell "fast because healthy"
    from "fast because we gave up"."""

    def test_outcome_order_pinned(self):
        assert OUTCOMES == ("clean", "hedged", "degraded", "timed_out", "shed")

    def test_outcomes_partition_the_window(self):
        mon = SLAMonitor(p99_target_ms=10, window_requests=10)
        outcomes = ["clean"] * 5 + ["hedged"] * 2 + ["degraded"] * 1 + [
            "timed_out"
        ] * 1 + ["shed"] * 1
        (report,) = mon.observe(np.full(10, 2.0), outcomes=outcomes)
        assert report.num_clean == 5
        assert report.num_hedged == 2
        assert report.num_degraded == 1
        assert report.num_timed_out == 1
        assert report.num_shed == 1
        assert (
            report.num_clean + report.num_hedged + report.num_degraded
            + report.num_timed_out + report.num_shed
        ) == report.num_requests

    def test_counts_split_across_windows(self):
        mon = SLAMonitor(p99_target_ms=10, window_requests=4)
        outcomes = ["clean", "hedged", "clean", "clean", "shed", "clean"]
        reports = mon.observe(np.full(6, 1.0), outcomes=outcomes)
        assert len(reports) == 1
        assert reports[0].num_hedged == 1 and reports[0].num_shed == 0
        (second,) = mon.observe(
            np.full(2, 1.0), outcomes=["degraded", "clean"]
        )
        assert second.num_shed == 1  # carried over from the partial tail
        assert second.num_degraded == 1

    def test_omitted_outcomes_mean_all_clean(self):
        mon = SLAMonitor(p99_target_ms=10, window_requests=100)
        samples = np.linspace(1.0, 9.0, 100)
        (report,) = mon.observe(samples)
        assert report.num_clean == report.num_requests == 100
        # and the latency summary is bit-identical to an explicit
        # all-clean call — the pre-resilience behaviour
        explicit = SLAMonitor(p99_target_ms=10, window_requests=100)
        (report2,) = explicit.observe(samples, outcomes=["clean"] * 100)
        assert (report.p50_ms, report.p95_ms, report.p99_ms) == (
            report2.p50_ms, report2.p95_ms, report2.p99_ms,
        )

    def test_size_mismatch_raises(self):
        mon = SLAMonitor(window_requests=10)
        with pytest.raises(ValueError):
            mon.observe(np.full(3, 1.0), outcomes=["clean"] * 2)

    def test_unknown_outcome_raises(self):
        mon = SLAMonitor(window_requests=10)
        with pytest.raises(KeyError):
            mon.observe(np.full(1, 1.0), outcomes=["mystery"])

"""Unit tests for the ``repro.cluster.resilience`` client plane.

Covers each piece in isolation at the module's fixed budgets —
deterministic retry backoff, the circuit-breaker state machine
(including the lazy boundary-stamped open -> half-open transition and
its byte-identical transition log across processes), health tracking,
the hedging trigger and the simulated clock they all run on.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.cluster.resilience import (
    CircuitBreaker,
    DegradedReadError,
    HealthTracker,
    ResiliencePolicy,
)
from repro.cluster.resilience.breaker import BREAKER_COOLDOWN_S
from repro.cluster.resilience.health import HEALTH_WINDOW
from repro.cluster.resilience.policy import (
    BACKOFF_MULTIPLIER,
    BASE_BACKOFF_S,
    HEDGE_MIN_DELAY_S,
    HEDGE_QUANTILE,
    JITTER_FRAC,
    MAX_BACKOFF_S,
    backoff_s,
)
from repro.obs import SimClock

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _ceiling(attempt: int) -> float:
    return min(BASE_BACKOFF_S * BACKOFF_MULTIPLIER ** (attempt - 1), MAX_BACKOFF_S)


class TestBackoff:
    def test_backoff_is_deterministic(self):
        series_a = [backoff_s(n, key=3) for n in range(1, 5)]
        series_b = [backoff_s(n, key=3) for n in range(1, 5)]
        assert series_a == series_b

    def test_key_changes_jitter(self):
        assert backoff_s(1, key=1) != backoff_s(1, key=2)
        assert backoff_s(2, key=1) != backoff_s(2, key=2)

    def test_exponential_growth_capped(self):
        assert [_ceiling(n) for n in (1, 2, 3)] == pytest.approx([0.05, 0.1, 0.2])
        assert _ceiling(6) == pytest.approx(1.6)
        assert _ceiling(7) == _ceiling(12) == MAX_BACKOFF_S  # capped
        # each uncapped doubling lands at or above the previous full wait,
        # whatever the jitter took off either one
        for key in range(8):
            waits = [backoff_s(n, key=key) for n in range(1, 7)]
            assert waits == sorted(waits)
            assert backoff_s(12, key=key) <= MAX_BACKOFF_S

    def test_jitter_only_shrinks_within_fraction(self):
        for attempt in range(1, 10):
            for key in range(5):
                ceiling = _ceiling(attempt)
                backoff = backoff_s(attempt, key=key)
                assert ceiling * (1.0 - JITTER_FRAC) <= backoff <= ceiling


class TestCircuitBreaker:
    def _tripped(self) -> CircuitBreaker:
        """Three failures: ``BREAKER_MIN_SAMPLES`` at rate 1.0, open at 0.3
        with the cooldown boundary at 1.3."""
        brk = CircuitBreaker()
        for t in (0.1, 0.2, 0.3):
            brk.record_failure(t)
        return brk

    def test_trips_at_min_samples(self):
        brk = CircuitBreaker()
        brk.record_failure(0.1)
        brk.record_failure(0.2)
        assert brk.state(0.25) == "closed"  # 2 of the 3 samples needed
        brk.record_failure(0.3)
        assert brk.state(0.35) == "open"
        assert not brk.allow(0.35)

    def test_failure_rate_counts_only_the_window(self):
        """Five successes then failures: the fourth failure trips only
        because the window holds 8 outcomes (4/8 >= 0.5, not 4/9)."""
        brk = CircuitBreaker()
        for t in range(5):
            brk.record_success(float(t))
        for t in (5.0, 6.0, 7.0):
            brk.record_failure(t)
        assert brk.state(7.5) == "closed"  # 3/8 < 0.5
        brk.record_failure(8.0)
        assert brk.state(8.5) == "open"

    def test_successes_keep_it_closed(self):
        brk = CircuitBreaker()
        for t in range(8):
            brk.record_success(float(t))
        assert brk.state(8.0) == "closed"
        assert brk.allow(8.0)

    def test_half_open_after_cooldown_with_probe_limit(self):
        brk = self._tripped()
        assert brk.state(1.5) == "half_open"
        assert brk.allow(1.5)       # the single probe slot
        assert not brk.allow(1.5)   # second concurrent probe refused

    def test_probe_success_closes(self):
        brk = self._tripped()
        assert brk.allow(1.5)
        brk.record_success(1.6)
        assert brk.state(1.7) == "closed"

    def test_probe_failure_reopens_and_restarts_cooldown(self):
        brk = self._tripped()
        assert brk.allow(1.5)
        brk.record_failure(1.6)
        assert brk.state(1.7) == "open"
        assert brk.state(2.5) == "open"      # new cooldown from 1.6
        assert brk.state(1.6 + BREAKER_COOLDOWN_S) == "half_open"

    def test_lazy_transition_stamped_at_boundary(self):
        a = self._tripped()
        b = self._tripped()
        a.state(1.3001)   # polled just past the boundary
        b.state(9.0)      # polled much later
        assert a.transitions == b.transitions
        assert a.transitions[-1] == (1.3, "open", "half_open")

    def test_transitions_byte_identical_across_processes(self):
        script = (
            "from repro.cluster.resilience import CircuitBreaker\n"
            "brk = CircuitBreaker()\n"
            "brk.record_failure(0.1); brk.record_failure(0.2)\n"
            "brk.record_failure(0.3)\n"
            "brk.allow(1.5); brk.record_failure(1.6)\n"
            "brk.state(2.7); brk.allow(2.7); brk.record_success(2.8)\n"
            "print(repr(brk.transitions))\n"
        )
        outs = []
        for hashseed in ("0", "31337"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hashseed
            env["PYTHONPATH"] = os.path.join(REPO, "src")
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
        assert "half_open" in outs[0]


class TestHealthTracker:
    def test_ewma_and_error_rate(self):
        health = HealthTracker()
        health.record(0, 0.1, True)
        health.record(0, 0.3, True)
        assert health.ewma_latency_s(0) == pytest.approx(0.75 * 0.1 + 0.25 * 0.3)
        health.record(0, 0.2, False)
        assert health.error_rate(0) == pytest.approx(0.25)

    def test_quantile_window_keeps_the_latest(self):
        health = HealthTracker()
        for ms in range(HEALTH_WINDOW + 44):
            health.record(0, float(ms), True)
        assert health.latency_quantile(0.0) == 44.0
        assert health.latency_quantile(1.0) == HEALTH_WINDOW + 43.0

    def test_quantile_inf_when_cold(self):
        health = HealthTracker()
        assert health.latency_quantile(0.95) == float("inf")

    def test_failures_and_hedged_stay_out_of_quantile_window(self):
        health = HealthTracker()
        health.record(0, 0.1, True)
        health.record(1, 99.0, False)            # failure: excluded
        health.record(2, 50.0, True, hedged=True)  # hedged: excluded
        assert health.latency_quantile(1.0) == pytest.approx(0.1)

    @pytest.mark.parametrize("seed", range(40))
    def test_quantile_is_numpys_over_the_window(self, seed):
        """Read from the sorted window, the quantile is ``np.quantile`` of
        the last ``HEALTH_WINDOW`` healthy, unhedged samples, bit for bit,
        at every step: before the window fills, while it evicts, with
        repeated values, failures and hedged attempts mixed in."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 3 * HEALTH_WINDOW))
        latencies = rng.exponential(size=n) * 10.0 ** rng.integers(-4, 3)
        if seed % 2:
            latencies = np.round(latencies, 3)  # ties
        ok = rng.random(n) > 0.1
        hedged = rng.random(n) < 0.2
        quantiles = [0.0, 0.5, HEDGE_QUANTILE, 1.0, *rng.random(3).tolist()]
        health = HealthTracker()
        window: list[float] = []
        for latency, good, slow in zip(latencies.tolist(), ok, hedged):
            health.record(int(rng.integers(8)), latency, bool(good), hedged=bool(slow))
            if good and not slow:
                window = (window + [latency])[-HEALTH_WINDOW:]
            for q in quantiles:
                want = np.quantile(window, q) if window else float("inf")
                assert health.latency_quantile(q) == want

    def test_replica_order_is_deterministic_and_health_first(self):
        health = HealthTracker()
        health.record(3, 0.5, True)
        health.record(1, 0.1, True)
        health.record(2, 0.1, False)   # errors beat latency
        assert health.replica_order([1, 2, 3]) == [1, 3, 2]
        assert health.replica_order([7, 5]) == [5, 7]  # id tie-break


class TestHedgeDelay:
    def test_cold_tracker_disables_hedging(self):
        assert ResiliencePolicy().hedge_delay_s() == float("inf")

    def test_fires_past_learned_quantile(self):
        policy = ResiliencePolicy()
        latencies = np.linspace(0.01, 0.02, 40)
        for latency in latencies:
            policy.health.record(0, float(latency), True)
        want = float(np.quantile(latencies, HEDGE_QUANTILE))
        assert policy.hedge_delay_s() == pytest.approx(want)
        assert want == pytest.approx(0.0195)  # p95 of the window

    def test_min_delay_floor(self):
        policy = ResiliencePolicy()
        policy.health.record(0, HEDGE_MIN_DELAY_S / 10, True)
        assert policy.hedge_delay_s() == HEDGE_MIN_DELAY_S


class TestDegradedReadError:
    def test_carries_staleness_accounting(self):
        err = DegradedReadError(["emb"], synced_version=3, current_version=7)
        assert err.staleness_versions == 4
        assert "emb" in str(err)


class TestResiliencePolicy:
    def test_breakers_are_cached_per_shard(self):
        policy = ResiliencePolicy()
        assert policy.breaker_for(3) is policy.breaker_for(3)
        assert policy.breaker_for(3) is not policy.breaker_for(4)

    def test_clock_is_the_only_setting(self):
        """The clock is state, not a setting: nothing is settable."""
        settable = [f.name for f in dataclasses.fields(ResiliencePolicy) if f.init]
        assert settable == []
        with pytest.raises(TypeError):
            ResiliencePolicy(clock=SimClock())


class TestSimClock:
    def test_advance_and_set(self):
        clock = SimClock()
        assert clock.now() == 0.0
        clock.advance(1.5)
        clock.set(10.0)
        assert clock.now() == 10.0

    def test_time_cannot_move_backwards(self):
        clock = SimClock()
        clock.set(5.0)
        with pytest.raises(ValueError):
            clock.advance(-1.0)
        with pytest.raises(ValueError):
            clock.set(4.0)

    def test_zero_steps_are_allowed_and_return_now(self):
        clock = SimClock()
        assert clock.advance(0.0) == 0.0
        assert clock.set(2.5) == 2.5
        assert clock.set(2.5) == 2.5
        assert clock.advance(0.5) == 3.0

    def test_refused_move_leaves_time_unchanged(self):
        clock = SimClock()
        clock.set(5.0)
        for move in (lambda: clock.advance(-1e-9), lambda: clock.set(4.999)):
            with pytest.raises(ValueError):
                move()
            assert clock.now() == 5.0

    def test_policy_clock_is_shared_timeline_state(self):
        policy = ResiliencePolicy()
        policy.clock.advance(backoff_s(1, key=0))
        assert policy.clock.now() == backoff_s(1, key=0)
        assert ResiliencePolicy().clock.now() == 0.0  # one clock per policy

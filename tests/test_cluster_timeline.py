"""Tests for the update-timeline simulator (Fig. 8 machinery)."""

import pytest

from repro.cluster.timeline import (
    UpdateEvent,
    UpdateTimeline,
    simulate_periodic_updates,
)


class TestUpdateEvent:
    def test_duration(self):
        e = UpdateEvent(started_s=10, applied_s=25, version=1, kind="delta")
        assert e.duration_s == 15


class TestTimeline:
    def test_rejects_timetravel(self):
        tl = UpdateTimeline(horizon_s=100)
        with pytest.raises(ValueError):
            tl.add(UpdateEvent(started_s=10, applied_s=5, version=1, kind="x"))

    def test_staleness_accounting(self):
        tl = UpdateTimeline(horizon_s=100)
        tl.add(UpdateEvent(10, 20, 1, "delta"))
        # at t=30, serving data as-of t=10 -> 20 s stale
        assert tl.staleness_at(30) == pytest.approx(20)
        # before the update applies, staleness grows from t=0
        assert tl.staleness_at(15) == pytest.approx(15)

    def test_average_staleness_no_updates(self):
        tl = UpdateTimeline(horizon_s=100)
        # staleness ramps 0..100, sampled every 10 s: 0, 10, ..., 90
        assert tl.average_staleness() == pytest.approx(45.0)
        assert tl.max_staleness() == pytest.approx(90.0)

    def test_total_update_seconds(self):
        tl = UpdateTimeline(horizon_s=100)
        tl.add(UpdateEvent(0, 10, 1, "delta"))
        tl.add(UpdateEvent(20, 25, 2, "delta"))
        assert tl.total_update_seconds == 15


class TestPeriodicSimulation:
    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_periodic_updates(0, 10, 1, "x")

    def test_fast_updates_land_every_interval(self):
        tl = simulate_periodic_updates(
            3600, interval_s=600, update_duration_s=1.0, kind="lora"
        )
        # six updates start; the last applies just past the horizon
        assert len(tl.events) == 6
        assert tl.updates_delivered == 5

    def test_slow_updates_serialize(self):
        """An update slower than the interval delays its successors."""
        tl = simulate_periodic_updates(
            3600, interval_s=600, update_duration_s=900.0, kind="delta"
        )
        assert tl.updates_delivered < 6
        applied = [e.applied_s for e in tl.events]
        assert all(b - a >= 900.0 for a, b in zip(applied, applied[1:]))

    def test_next_start_waits_for_the_previous_apply(self):
        """No pipelining: a slow update pushes every later start back."""
        tl = simulate_periodic_updates(
            3600, interval_s=600, update_duration_s=900.0, kind="delta"
        )
        assert [e.started_s for e in tl.events] == [600.0, 1500.0, 2400.0, 3300.0]

    def test_max_staleness_is_one_interval(self):
        tl = simulate_periodic_updates(3600, 600, 1.0, "lora")
        assert tl.max_staleness() == pytest.approx(600.0)

    def test_more_frequent_updates_lower_staleness(self):
        slow = simulate_periodic_updates(3600, 1200, 1.0, "x")
        fast = simulate_periodic_updates(3600, 300, 1.0, "x")
        assert fast.average_staleness() < slow.average_staleness()

    def test_faster_transfers_lower_staleness(self):
        heavy = simulate_periodic_updates(3600, 600, 500.0, "delta")
        light = simulate_periodic_updates(3600, 600, 1.0, "lora")
        assert light.average_staleness() < heavy.average_staleness()

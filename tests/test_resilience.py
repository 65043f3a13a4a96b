"""Unit tests for the ``repro.cluster.resilience`` client plane.

Covers each piece in isolation — deterministic retry backoff, the
circuit-breaker state machine (including the lazy boundary-stamped
open -> half-open transition and its byte-identical transition log
across processes), health tracking, the hedging trigger, and the
bounded-staleness degraded-read cache.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.resilience import (
    BreakerConfig,
    CircuitBreaker,
    DegradedReadError,
    DegradedReadMode,
    HealthTracker,
    HedgedRead,
    ResiliencePolicy,
    RetryPolicy,
)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestRetryPolicy:
    def test_backoff_is_deterministic(self):
        a = RetryPolicy(seed=7)
        b = RetryPolicy(seed=7)
        series_a = [a.backoff_s(n, key=3) for n in range(1, 5)]
        series_b = [b.backoff_s(n, key=3) for n in range(1, 5)]
        assert series_a == series_b

    def test_different_seed_or_key_changes_jitter(self):
        base = RetryPolicy(seed=7)
        assert base.backoff_s(1, key=1) != RetryPolicy(seed=8).backoff_s(
            1, key=1
        )
        assert base.backoff_s(1, key=1) != base.backoff_s(1, key=2)

    def test_exponential_growth_capped(self):
        retry = RetryPolicy(
            base_backoff_s=0.1,
            multiplier=2.0,
            max_backoff_s=0.3,
            jitter_frac=0.0,
        )
        assert retry.backoff_s(1) == pytest.approx(0.1)
        assert retry.backoff_s(2) == pytest.approx(0.2)
        assert retry.backoff_s(3) == pytest.approx(0.3)  # capped
        assert retry.backoff_s(9) == pytest.approx(0.3)

    def test_jitter_only_shrinks_within_fraction(self):
        retry = RetryPolicy(base_backoff_s=0.1, jitter_frac=0.5, seed=11)
        for attempt in range(1, 6):
            backoff = retry.backoff_s(attempt, key=5)
            ceiling = min(
                retry.base_backoff_s * retry.multiplier ** (attempt - 1),
                retry.max_backoff_s,
            )
            assert ceiling * 0.5 <= backoff <= ceiling

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter_frac=1.5)


class TestCircuitBreaker:
    def _tripped(self) -> CircuitBreaker:
        brk = CircuitBreaker(
            BreakerConfig(window=4, min_samples=2, cooldown_s=1.0)
        )
        brk.record_failure(0.1)
        brk.record_failure(0.2)
        return brk

    def test_trips_at_failure_rate(self):
        brk = self._tripped()
        assert brk.state(0.3) == "open"
        assert not brk.allow(0.3)

    def test_successes_keep_it_closed(self):
        brk = CircuitBreaker(BreakerConfig(window=4, min_samples=2))
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
        assert brk.state(2.7) == "half_open"

    def test_lazy_transition_stamped_at_boundary(self):
        a = self._tripped()
        b = self._tripped()
        a.state(1.2001)   # polled just past the boundary
        b.state(9.0)      # polled much later
        assert a.transitions == b.transitions
        assert a.transitions[-1] == (1.2, "open", "half_open")

    def test_transitions_byte_identical_across_processes(self):
        script = (
            "from repro.cluster.resilience import BreakerConfig, "
            "CircuitBreaker\n"
            "brk = CircuitBreaker(BreakerConfig(window=4, min_samples=2, "
            "cooldown_s=1.0))\n"
            "brk.record_failure(0.1); brk.record_failure(0.2)\n"
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
        health = HealthTracker(alpha=0.5)
        health.record(0, 0.1, True)
        health.record(0, 0.3, True)
        assert health.ewma_latency_s(0) == pytest.approx(0.2)
        health.record(0, 0.2, False)
        assert health.error_rate(0) == pytest.approx(0.5)

    def test_quantile_inf_when_cold(self):
        health = HealthTracker()
        assert health.latency_quantile(0.95) == float("inf")

    def test_failures_and_hedged_stay_out_of_quantile_window(self):
        health = HealthTracker()
        health.record(0, 0.1, True)
        health.record(1, 99.0, False)            # failure: excluded
        health.record(2, 50.0, True, hedged=True)  # hedged: excluded
        assert health.latency_quantile(1.0) == pytest.approx(0.1)

    def test_replica_order_is_deterministic_and_health_first(self):
        health = HealthTracker()
        health.record(3, 0.5, True)
        health.record(1, 0.1, True)
        health.record(2, 0.1, False)   # errors beat latency
        assert health.replica_order([1, 2, 3]) == [1, 3, 2]
        assert health.replica_order([7, 5]) == [5, 7]  # id tie-break

    def test_validation(self):
        with pytest.raises(ValueError):
            HealthTracker(alpha=0.0)
        with pytest.raises(ValueError):
            HealthTracker(window=0)


class TestHedgedRead:
    def test_cold_tracker_disables_hedging(self):
        hedge = HedgedRead()
        health = HealthTracker()
        assert hedge.hedge_delay_s(health) == float("inf")

    def test_fires_past_learned_quantile(self):
        hedge = HedgedRead(quantile=0.95)
        health = HealthTracker()
        for _ in range(20):
            health.record(0, 0.01, True)
        assert hedge.hedge_delay_s(health) == pytest.approx(0.01)

    def test_min_delay_floor(self):
        hedge = HedgedRead(min_delay_s=0.5)
        health = HealthTracker()
        health.record(0, 0.01, True)
        assert hedge.hedge_delay_s(health) == pytest.approx(0.5)


class TestDegradedReadMode:
    def _mode(self) -> DegradedReadMode:
        mode = DegradedReadMode()
        mode.update(
            "emb",
            np.array([1, 2, 3], dtype=np.int64),
            np.full((3, 2), 1.0),
            np.array([1, 1, 1], dtype=np.int64),
            synced_version=1,
        )
        return mode

    def test_serve_returns_cached_rows_flagged_degraded(self):
        mode = self._mode()
        stale = mode.serve("emb", current_version=3)
        assert stale.degraded
        assert stale.ids.tolist() == [1, 2, 3]
        assert stale.as_of_version == 1
        assert stale.staleness_versions == 2
        assert stale.row_staleness.tolist() == [2, 2, 2]

    def test_update_keeps_freshest_row_version(self):
        mode = self._mode()
        mode.update(
            "emb",
            np.array([2, 4], dtype=np.int64),
            np.full((2, 2), 5.0),
            np.array([2, 2], dtype=np.int64),
            synced_version=2,
        )
        stale = mode.serve("emb")
        assert stale.ids.tolist() == [1, 2, 3, 4]
        by_id = dict(zip(stale.ids.tolist(), stale.rows[:, 0].tolist()))
        assert by_id[2] == 5.0 and by_id[1] == 1.0
        assert stale.row_versions.tolist() == [1, 2, 1, 2]

    def test_update_is_idempotent(self):
        mode = self._mode()
        before = mode.serve("emb")
        mode.update(
            "emb",
            np.array([1, 2, 3], dtype=np.int64),
            np.full((3, 2), 1.0),
            np.array([1, 1, 1], dtype=np.int64),
            synced_version=1,
        )
        after = mode.serve("emb")
        np.testing.assert_array_equal(before.ids, after.ids)
        np.testing.assert_array_equal(before.rows, after.rows)

    def test_unseen_table_raises_key_error(self):
        """The cache has no width or lane for a table it never held; the
        client answers that from the store's own empty."""
        with pytest.raises(KeyError):
            DegradedReadMode().serve("ghost", current_version=5)
        assert "ghost" not in self._mode().tables

    def test_pending_rows_never_exceed_held_rows(self):
        """Updates append; a fold runs once the pending deltas outnumber
        the held rows, so the cache holds at most twice its rows."""
        mode = self._mode()
        for step in range(2, 40):
            ids = np.arange(step * 2, step * 2 + 3, dtype=np.int64)
            mode.update("emb", ids, np.ones((3, 2)), np.full(3, step), step)
            mode.update("emb", ids[:0], np.ones((0, 2)), ids[:0], step)
            entry = mode._tables["emb"]
            assert entry.pending_rows <= entry.held[0].size
        assert mode.serve("emb").ids.size == 80  # ids 1..80
        assert not mode._tables["emb"].pending

    def test_served_read_is_a_snapshot_later_updates_cannot_move(self):
        mode = self._mode()
        stale = mode.serve("emb")
        kept = (stale.ids.copy(), stale.rows.copy(), stale.row_versions.copy())
        # overwrite a held id in place, then grow the cache with a new id
        for ids, value, version in (([2], 7.0, 2), ([0, 9], 8.0, 3)):
            mode.update(
                "emb",
                np.array(ids, dtype=np.int64),
                np.full((len(ids), 2), value),
                np.full(len(ids), version, dtype=np.int64),
                synced_version=version,
            )
        np.testing.assert_array_equal(stale.ids, kept[0])
        np.testing.assert_array_equal(stale.rows, kept[1])
        np.testing.assert_array_equal(stale.row_versions, kept[2])
        assert mode.serve("emb").ids.tolist() == [0, 1, 2, 3, 9]

    def test_caller_arrays_are_not_adopted(self):
        mode = DegradedReadMode()
        ids = np.array([1, 2], dtype=np.int64)
        rows = np.ones((2, 2))
        versions = np.array([1, 1], dtype=np.int64)
        mode.update("emb", ids, rows, versions, synced_version=1)
        rows[:] = -1.0
        ids[:] = 0
        # one row against two held: this delta waits unfolded until the read
        late = (np.array([2]), np.full((1, 2), 5.0), np.array([2]))
        mode.update("emb", *late, 2)
        late[0][:], late[1][:], late[2][:] = 0, -2.0, 9
        stale = mode.serve("emb")
        assert stale.ids.tolist() == [1, 2]
        assert stale.rows[:, 0].tolist() == [1.0, 5.0]
        assert stale.row_versions.tolist() == [1, 2]
        assert (rows == -1.0).all()  # the merge never wrote into the caller's rows

    def test_table_rewidened_between_pulls_zero_pads_held_rows(self):
        """Regression: rank growth re-widens ``lora_a/*`` between two pulls;
        the merge used to die in ``np.concatenate`` on the width mismatch."""
        mode = DegradedReadMode()
        mode.update(
            "lora_a/0", np.arange(10), np.ones((10, 4)), np.full(10, 1), 1
        )
        mode.update(
            "lora_a/0", np.arange(5), np.full((5, 8), 2.0), np.full(5, 2), 2
        )
        stale = mode.serve("lora_a/0")
        assert stale.rows.shape == (10, 8)
        np.testing.assert_array_equal(stale.rows[:5], np.full((5, 8), 2.0))
        np.testing.assert_array_equal(stale.rows[5:, :4], np.ones((5, 4)))
        np.testing.assert_array_equal(stale.rows[5:, 4:], np.zeros((5, 4)))
        # a narrower (stale-width) delta pads the same way
        mode.update(
            "lora_a/0", np.array([7]), np.full((1, 4), 3.0), np.array([3]), 3
        )
        assert mode.serve("lora_a/0").rows[7].tolist() == [3.0] * 4 + [0.0] * 4


def _lexsort_merge(held, ids, rows, versions):
    """The merge ``DegradedReadMode.update`` used to run: concatenate the
    whole cache with the delta (both zero-padded to the wider width),
    lexsort, keep the last copy per id."""
    if held is not None:
        width = max(held[1].shape[1], rows.shape[1])
        rows = np.concatenate(
            [np.pad(r, ((0, 0), (0, width - r.shape[1]))) for r in (held[1], rows)]
        )
        ids = np.concatenate((held[0], ids))
        versions = np.concatenate((held[2], versions))
    order = np.lexsort((versions, ids))
    ids = ids[order]
    last = np.r_[ids[1:] != ids[:-1], True][: ids.size]
    return ids[last], rows[order][last], versions[order][last]


_DELTA = st.lists(
    st.tuples(st.integers(0, 30), st.integers(1, 6)), min_size=0, max_size=25
)


class TestDegradedMergeAgreesWithLexsort:
    @given(
        deltas=st.lists(_DELTA, min_size=1, max_size=8),
        shape=st.sampled_from(["as_drawn", "sorted", "replayed"]),
        widths=st.lists(st.integers(2, 4), min_size=1, max_size=4),
        read_every_update=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_random_deltas(self, deltas, shape, widths, read_every_update):
        """Sorted, unsorted, duplicated, replayed and re-widened deltas,
        read after every update or only after the last (so one read folds
        many pending deltas), all fold to what the whole-cache lexsort
        merge gave, version ties included."""
        rng = np.random.default_rng(len(deltas))
        mode = DegradedReadMode()
        held = None
        if shape == "replayed":
            deltas = [d for d in deltas for _ in range(2)]
        for step, delta in enumerate(deltas):
            if shape == "sorted":
                delta = sorted({rid: (rid, v) for rid, v in delta}.values())
            ids = np.array([rid for rid, _ in delta], dtype=np.int64)
            versions = np.array([v for _, v in delta], dtype=np.int64)
            if shape == "replayed" and step % 2:
                rows = last_rows  # the same delta again: must change nothing
            else:
                width = widths[step % len(widths)]
                rows = last_rows = rng.normal(size=(ids.size, width))
            mode.update("emb", ids, rows, versions, synced_version=step)
            held = _lexsort_merge(held, ids, rows, versions)
            if read_every_update or step == len(deltas) - 1:
                stale = mode.serve("emb")
                np.testing.assert_array_equal(stale.ids, held[0])
                np.testing.assert_array_equal(stale.rows, held[1])
                np.testing.assert_array_equal(stale.row_versions, held[2])


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

    def test_wait_advances_clock_and_fires_hook(self):
        seen: list[float] = []
        policy = ResiliencePolicy(on_wait=seen.append)
        policy.wait(0.5)
        policy.wait(0.25)
        assert policy.clock.now() == pytest.approx(0.75)
        assert seen == [pytest.approx(0.5), pytest.approx(0.75)]

    def test_validation(self):
        with pytest.raises(ValueError):
            ResiliencePolicy(deadline_s=0.0)
        with pytest.raises(ValueError):
            ResiliencePolicy(attempt_timeout_s=-1.0)

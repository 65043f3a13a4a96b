"""Tests for the accuracy-timeline harness (scaled down for speed)."""

import numpy as np
import pytest

from repro.experiments.accuracy import (
    AccuracyConfig,
    auc_improvement_table,
    build_pretrained_world,
    run_comparison,
    run_strategy,
)
from repro.experiments.factories import (
    delta_update,
    live_update,
    no_update,
    quick_update,
)

FAST = AccuracyConfig(
    table_sizes=(400, 300),
    num_dense=3,
    horizon_s=600.0,
    update_interval_s=300.0,
    pretrain_steps=80,
)


class TestWorldBuilding:
    def test_pretrained_world_learns_something(self):
        stream, model = build_pretrained_world(FAST)
        from repro.dlrm.metrics import auc_roc

        ev = stream.eval_batch(3000)
        auc = auc_roc(ev.labels, model.predict(ev.dense, ev.sparse_ids))
        assert auc > 0.55

    def test_touch_log_reset_after_pretraining(self):
        _, model = build_pretrained_world(FAST)
        assert model.embeddings.touched_fraction() == 0.0

    def test_worlds_are_reproducible(self):
        s1, m1 = build_pretrained_world(FAST)
        s2, m2 = build_pretrained_world(FAST)
        np.testing.assert_array_equal(
            m1.embeddings[0].weight, m2.embeddings[0].weight
        )


class TestRunStrategy:
    def test_timeline_covers_horizon(self):
        run = run_strategy(FAST, no_update)
        assert len(run.timeline) == 20  # 600 / 30
        assert run.timeline[-1].time_s == 600.0

    def test_mean_auc_reasonable(self):
        run = run_strategy(FAST, delta_update)
        assert 0.5 < run.mean_auc < 1.0

    def test_delta_moves_bytes_noupdate_does_not(self):
        delta = run_strategy(FAST, delta_update)
        none = run_strategy(FAST, no_update)
        assert delta.bytes_moved > 0
        assert none.bytes_moved == 0.0

    def test_liveupdate_moves_no_bytes(self):
        live = run_strategy(FAST, live_update(rank=4))
        assert live.bytes_moved == 0.0
        assert live.update_seconds > 0.0


class TestComparison:
    @pytest.fixture(scope="class")
    def runs(self):
        cfg = AccuracyConfig(
            table_sizes=(400, 300),
            num_dense=3,
            horizon_s=1200.0,
            update_interval_s=300.0,
            pretrain_steps=120,
        )
        return run_comparison(
            cfg,
            {
                "DeltaUpdate": delta_update,
                "NoUpdate": no_update,
                "QuickUpdate-5%": quick_update(0.05),
                "LiveUpdate": live_update(rank=4),
            },
        )

    def test_identical_eval_sequences(self, runs):
        """All strategies must see the same evaluation timeline."""
        times = {
            name: [p.time_s for p in run.timeline] for name, run in runs.items()
        }
        first = next(iter(times.values()))
        assert all(t == first for t in times.values())

    def test_noupdate_is_worst(self, runs):
        assert runs["NoUpdate"].mean_auc <= min(
            runs["DeltaUpdate"].mean_auc, runs["LiveUpdate"].mean_auc
        )

    def test_improvement_table_baseline_zero(self, runs):
        table = auc_improvement_table(runs)
        assert table["DeltaUpdate"] == 0.0
        assert table["NoUpdate"] < 0

    def test_improvement_table_missing_baseline(self, runs):
        with pytest.raises(KeyError):
            auc_improvement_table({"NoUpdate": runs["NoUpdate"]})

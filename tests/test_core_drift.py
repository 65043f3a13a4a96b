"""Tests for drift monitoring and the adaptive full-sync policy."""

import numpy as np
import pytest

from repro.core.drift import AdaptiveSyncPolicy, DriftMonitor
from repro.core.lora import LoRACollection
from repro.data.synthetic import DriftingCTRStream, StreamConfig
from repro.dlrm.model import DLRM, DLRMConfig
from repro.dlrm.optim import RowwiseAdagrad

TABLE_SIZES = (60, 40)


@pytest.fixture
def model():
    return DLRM(
        DLRMConfig(
            num_dense=3,
            embedding_dim=4,
            table_sizes=TABLE_SIZES,
            bottom_mlp=(8,),
            top_mlp=(8,),
            seed=0,
        )
    )


class TestDriftMonitor:
    def test_no_drift_at_anchor(self, model):
        mon = DriftMonitor(model)
        sample = mon.observe(0.0, model)
        assert sample.base_divergence == pytest.approx(0.0)
        assert sample.adapter_norm == 0.0

    def test_training_shows_as_divergence(self, model):
        mon = DriftMonitor(model.copy())
        stream = DriftingCTRStream(
            StreamConfig(table_sizes=TABLE_SIZES, num_dense=3, seed=1)
        )
        opt = RowwiseAdagrad(lr=0.1)
        for _ in range(5):
            b = stream.next_batch(64)
            model.train_step(b.dense, b.sparse_ids, b.labels, opt)
        sample = mon.observe(60.0, model)
        assert sample.base_divergence > 0

    def test_adapter_norm_component(self, model):
        mon = DriftMonitor(model)
        lora = LoRACollection([4, 4], rank=2, capacities=[8, 8], seed=0)
        slot = int(lora[0].activate_batch(np.array([1]))[0])
        lora[0].a[slot] = np.ones(2)
        sample = mon.observe(0.0, model, lora_collection=lora)
        assert sample.adapter_norm > 0
        assert sample.total == sample.adapter_norm + sample.base_divergence

    def test_reference_overrides_anchor(self, model):
        mon = DriftMonitor(model)
        other = model.copy()
        other.embeddings[0].weight += 1.0
        against_anchor = mon.observe(0.0, model).base_divergence
        against_ref = mon.observe(0.0, model, reference=other).base_divergence
        assert against_anchor == pytest.approx(0.0)
        assert against_ref > 0

    def test_re_anchor_resets(self, model):
        mon = DriftMonitor(model.copy())
        model.embeddings[0].weight += 1.0
        assert mon.observe(0.0, model).base_divergence > 0
        mon.re_anchor(model)
        assert mon.observe(1.0, model).base_divergence == pytest.approx(0.0)


class TestAdaptiveSyncPolicy:
    def _sample(self, total):
        from repro.core.drift import DriftSample

        return DriftSample(time_s=0.0, adapter_norm=total, base_divergence=0.0)

    def test_fires_on_max_interval(self):
        policy = AdaptiveSyncPolicy(drift_threshold=1e9, max_interval_s=3600)
        assert not policy.should_sync(1800.0, None)
        assert policy.should_sync(3600.0, None)
        assert policy.decisions[-1][1] == "interval"

    def test_fires_early_on_drift(self):
        policy = AdaptiveSyncPolicy(drift_threshold=1.0, max_interval_s=3600)
        assert policy.should_sync(900.0, self._sample(2.0))
        assert policy.decisions[-1][1] == "drift"

    def test_refractory_period(self):
        policy = AdaptiveSyncPolicy(
            drift_threshold=1.0, min_interval_s=600, max_interval_s=3600
        )
        policy.mark_synced(1000.0)
        assert not policy.should_sync(1100.0, self._sample(100.0))
        assert policy.should_sync(1700.0, self._sample(100.0))

    def test_low_drift_waits_for_interval(self):
        policy = AdaptiveSyncPolicy(drift_threshold=5.0, max_interval_s=3600)
        assert not policy.should_sync(1800.0, self._sample(0.1))

    def test_mark_synced_restarts_clock(self):
        policy = AdaptiveSyncPolicy(drift_threshold=1e9, max_interval_s=1000)
        assert policy.should_sync(1000.0, None)
        policy.mark_synced(1000.0)
        assert not policy.should_sync(1500.0, None)
        assert policy.should_sync(2000.0, None)

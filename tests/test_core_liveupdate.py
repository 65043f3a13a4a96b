"""Tests for the LiveUpdate strategy."""

import numpy as np
import pytest

from repro.cluster.nodes import InferenceNode, TrainingCluster
from repro.cluster.shardstore import ShardedParameterStore
from repro.core.liveupdate import LiveUpdate, LiveUpdateConfig
from repro.core.trainer import BATCH_SIZE, TrainerConfig
from repro.data.synthetic import DriftingCTRStream, StreamConfig
from repro.dlrm.model import DLRM, DLRMConfig

TABLE_SIZES = (80, 60)


@pytest.fixture
def world():
    model = DLRM(
        DLRMConfig(
            num_dense=3,
            embedding_dim=8,
            table_sizes=TABLE_SIZES,
            bottom_mlp=(8,),
            top_mlp=(8,),
            seed=0,
        )
    )
    stream = DriftingCTRStream(
        StreamConfig(table_sizes=TABLE_SIZES, num_dense=3, seed=1)
    )
    server = ShardedParameterStore(row_bytes=64)
    trainer_cluster = TrainingCluster(model.copy(), server)
    node = InferenceNode(model.copy(), server)
    return stream, trainer_cluster, node


def _make(node, trainer_cluster, **cfg):
    return LiveUpdate(
        node,
        trainer_cluster=trainer_cluster,
        trainer_config=TrainerConfig(
            rank=4, dynamic_rank=False, dynamic_prune=False, lr=0.2
        ),
        config=LiveUpdateConfig(**cfg),
    )


class TestProtocol:
    def test_serving_batches_feed_buffer(self, world):
        stream, tc, node = world
        lu = _make(node, tc)
        lu.on_serving_batch(stream.next_batch(32, local=True))
        assert len(lu.buffer) == 32

    def test_update_window_without_data_is_cheap(self, world):
        _, tc, node = world
        lu = _make(node, tc)
        cost = lu.on_update_window(now=300.0)
        assert cost.rows == 0
        assert cost.bytes_moved == 0.0

    def test_update_window_trains_locally(self, world):
        stream, tc, node = world
        lu = _make(node, tc)
        for _ in range(3):
            lu.on_serving_batch(stream.next_batch(64, local=True))
        cost = lu.on_update_window(now=300.0)
        assert cost.kind == "lora-local"
        assert cost.rows == LiveUpdateConfig.steps_per_window * BATCH_SIZE
        assert cost.bytes_moved == 0.0  # the headline claim
        assert cost.seconds > 0.0

    def test_slot_cost_exists_before_the_first_slot(self, world):
        _, tc, node = world
        lu = _make(node, tc)
        assert vars(lu)["_slot_cost"] == 0.0  # set by __init__, not on first use
        lu.on_slot(now=1.0)  # empty buffer: nothing trained, nothing charged
        assert lu._slot_cost == 0.0

    def test_on_slot_accumulates_into_window_cost(self, world):
        stream, tc, node = world
        lu = _make(node, tc, steps_per_slot=2)
        for _ in range(3):
            lu.on_serving_batch(stream.next_batch(64, local=True))
        lu.on_slot(now=30.0)
        slot_cost = lu._slot_cost
        assert slot_cost > 0.0
        before = lu.trainer.report.train_seconds
        cost = lu.on_update_window(now=300.0)
        burst = lu.trainer.report.train_seconds - before
        # the window charges its own burst plus the slot compute, once
        assert cost.seconds == pytest.approx(burst + slot_cost)
        assert lu._slot_cost == 0.0

    def test_overlay_applies_after_training(self, world):
        stream, tc, node = world
        lu = _make(node, tc)
        for _ in range(3):
            lu.on_serving_batch(stream.next_batch(64, local=True))
        ev = stream.eval_batch(64)
        before = node.predict(ev, overlay=lu.overlay())
        lu.on_update_window(now=300.0)
        after = node.predict(ev, overlay=lu.overlay())
        assert not np.allclose(before, after)


class TestFullSync:
    def test_adopts_training_cluster_model(self, world):
        stream, tc, node = world
        lu = _make(node, tc)
        for _ in range(5):
            tc.train_on(stream.next_batch(64))
        cost = lu.on_full_sync(now=3600.0)
        assert cost.kind == "full-sync"
        assert cost.bytes_moved == tc.model.embedding_bytes
        np.testing.assert_allclose(
            node.model.embeddings[0].weight, tc.model.embeddings[0].weight
        )

    def test_merge_before_sync_preserves_serving_continuity(self, world):
        stream, tc, node = world
        lu = _make(node, tc)
        for _ in range(3):
            lu.on_serving_batch(stream.next_batch(64, local=True))
        lu.on_update_window(now=300.0)
        lu.on_full_sync(now=3600.0)
        # adapters are reset after the full sync
        assert lu.trainer.lora.num_active == 0

    def test_no_cluster_means_noop_sync(self, world):
        _, _, node = world
        lu = LiveUpdate(node, trainer_cluster=None)
        cost = lu.on_full_sync(now=3600.0)
        assert cost.seconds == 0.0


class TestNaming:
    def test_dynamic_name(self, world):
        _, tc, node = world
        lu = LiveUpdate(node, trainer_cluster=tc)
        assert lu.name == "LiveUpdate"

    def test_fixed_rank_name(self, world):
        _, tc, node = world
        lu = LiveUpdate(
            node,
            trainer_cluster=tc,
            trainer_config=TrainerConfig(rank=6, dynamic_rank=False),
        )
        assert lu.name == "LiveUpdate-6"


class TestMemoryAccounting:
    def test_adapter_memory_fraction(self, world):
        _, tc, node = world
        lu = _make(node, tc)
        frac = lu.adapter_memory_fraction()
        assert 0 < frac < 1
        assert lu.adapter_memory_bytes() == lu.trainer.memory_bytes()

"""Tests for the baseline update strategies."""

import numpy as np
import pytest

from repro.cluster.nodes import InferenceNode, TrainingCluster
from repro.cluster.shardstore import ShardedParameterStore
from repro.data.synthetic import DriftingCTRStream, StreamConfig
from repro.dlrm.model import DLRM, DLRMConfig
from repro.strategies import DeltaUpdate, NoUpdate, QuickUpdate
from repro.strategies.base import UpdateCost


@pytest.fixture
def world():
    table_sizes = (60, 40)
    model = DLRM(
        DLRMConfig(
            num_dense=3,
            embedding_dim=4,
            table_sizes=table_sizes,
            bottom_mlp=(8,),
            top_mlp=(8,),
            seed=0,
        )
    )
    stream = DriftingCTRStream(
        StreamConfig(table_sizes=table_sizes, num_dense=3, seed=1)
    )
    server = ShardedParameterStore(row_bytes=32)
    trainer = TrainingCluster(model.copy(), server)
    node = InferenceNode(model.copy(), server)
    return stream, trainer, node


class TestUpdateCost:
    def test_addition(self):
        total = UpdateCost("a", 1.0, 10.0, 2) + UpdateCost("a", 2.0, 5.0, 3)
        assert total.seconds == 3.0
        assert total.bytes_moved == 15.0
        assert total.rows == 5

    def test_zero(self):
        z = UpdateCost.zero()
        assert z.seconds == 0 and z.bytes_moved == 0


class TestNoUpdate:
    def test_never_changes_model(self, world):
        stream, trainer, node = world
        strategy = NoUpdate()
        before = node.model.embeddings[0].weight.copy()
        for _ in range(3):
            trainer.train_on(stream.next_batch(32))
            strategy.on_update_window(now=600.0)
        np.testing.assert_array_equal(before, node.model.embeddings[0].weight)
        assert strategy.total_update_seconds == 0.0
        assert strategy.total_bytes_moved == 0.0


class TestDeltaUpdate:
    def test_syncs_all_changed_rows(self, world):
        stream, trainer, node = world
        strategy = DeltaUpdate(trainer, node)
        trainer.train_on(stream.next_batch(64))
        cost = strategy.on_update_window(now=600.0)
        assert cost.rows > 0
        assert cost.bytes_moved > 0
        np.testing.assert_allclose(
            node.model.embeddings[0].weight, trainer.model.embeddings[0].weight
        )

    def test_dense_layers_follow(self, world):
        stream, trainer, node = world
        strategy = DeltaUpdate(trainer, node)
        trainer.train_on(stream.next_batch(64))
        strategy.on_update_window(now=600.0)
        np.testing.assert_allclose(
            node.model.bottom.weights[0], trainer.model.bottom.weights[0]
        )

    def test_cost_log_accumulates(self, world):
        stream, trainer, node = world
        strategy = DeltaUpdate(trainer, node)
        for _ in range(3):
            trainer.train_on(stream.next_batch(32))
            strategy.on_update_window(now=0.0)
        assert len(strategy.cost_log) == 3


class TestQuickUpdate:
    def test_alpha_validated(self, world):
        _, trainer, node = world
        with pytest.raises(ValueError):
            QuickUpdate(trainer, node, alpha=0.0)

    def test_name_reflects_alpha(self, world):
        _, trainer, node = world
        assert QuickUpdate(trainer, node, alpha=0.05).name == "QuickUpdate-5%"

    def test_moves_fewer_rows_than_delta(self, world):
        stream, trainer, node = world
        quick = QuickUpdate(trainer, node, alpha=0.10)
        trainer.train_on(stream.next_batch(64))
        changed_before = sum(
            t.touched_rows().size for t in trainer.model.embeddings
        )
        cost = quick.on_update_window(now=600.0)
        assert 0 < cost.rows < changed_before

    def test_selects_top_magnitude_rows(self, world):
        stream, trainer, node = world
        quick = QuickUpdate(trainer, node, alpha=0.10)
        trainer.train_on(stream.next_batch(128))
        table = trainer.model.embeddings[0]
        served = node.model.embeddings[0].weight
        changed = table.touched_rows()
        deltas = np.linalg.norm(
            table.weight[changed] - served[changed], axis=1
        )
        selected = quick._select_rows(0)
        floor = np.sort(deltas)[-len(selected)]
        sel_mags = np.linalg.norm(
            table.weight[selected] - served[selected], axis=1
        )
        assert sel_mags.min() >= floor - 1e-12

    def test_full_sync_adopts_everything(self, world):
        stream, trainer, node = world
        quick = QuickUpdate(trainer, node, alpha=0.05)
        for _ in range(3):
            trainer.train_on(stream.next_batch(64))
            quick.on_update_window(now=0.0)
        cost = quick.on_full_sync(now=3600.0)
        assert cost.kind == "full-sync"
        np.testing.assert_allclose(
            node.model.embeddings[0].weight, trainer.model.embeddings[0].weight
        )

    def test_unselected_rows_stay_stale(self, world):
        stream, trainer, node = world
        quick = QuickUpdate(trainer, node, alpha=0.05)
        before = node.model.embeddings[0].weight.copy()
        trainer.train_on(stream.next_batch(128))
        quick.on_update_window(now=0.0)
        after = node.model.embeddings[0].weight
        unchanged_rows = np.all(before == after, axis=1).sum()
        assert unchanged_rows > 0.8 * before.shape[0]

"""Tests for the inference-side LoRA trainer."""

import time

import numpy as np
import pytest

from repro.core.trainer import BATCH_SIZE, LoRATrainer, TrainerConfig
from repro.data.stream import InferenceLogBuffer
from repro.data.synthetic import DriftingCTRStream, StreamConfig
from repro.dlrm.model import DLRM, DLRMConfig


@pytest.fixture
def world():
    table_sizes = (100, 80)
    model = DLRM(
        DLRMConfig(
            num_dense=3,
            embedding_dim=8,
            table_sizes=table_sizes,
            bottom_mlp=(8,),
            top_mlp=(8,),
            seed=0,
        )
    )
    stream = DriftingCTRStream(
        StreamConfig(table_sizes=table_sizes, num_dense=3, seed=1)
    )
    buffer = InferenceLogBuffer(retention_s=600)
    return model, stream, buffer


def _fill(buffer, stream, batches=4, n=64):
    for _ in range(batches):
        buffer.append(stream.next_batch(n, local=True))


class TestTraining:
    def test_empty_buffer_returns_none(self, world):
        model, _, buffer = world
        trainer = LoRATrainer(model, buffer)
        assert trainer.train_step() is None

    def test_train_step_returns_loss_and_counts(self, world):
        model, stream, buffer = world
        _fill(buffer, stream)
        trainer = LoRATrainer(model, buffer)
        loss = trainer.train_step()
        assert loss > 0
        assert trainer.report.steps == 1
        assert trainer.report.samples_seen == BATCH_SIZE
        assert trainer.report.rows_updated > 0

    def test_base_weights_frozen(self, world):
        model, stream, buffer = world
        _fill(buffer, stream)
        trainer = LoRATrainer(model, buffer)
        emb_before = model.embeddings[0].weight.copy()
        dense_before = model.bottom.weights[0].copy()
        for _ in range(5):
            trainer.train_step()
        np.testing.assert_array_equal(emb_before, model.embeddings[0].weight)
        np.testing.assert_array_equal(dense_before, model.bottom.weights[0])

    def test_train_seconds_is_the_host_time_of_each_step(self, world):
        model, stream, buffer = world
        _fill(buffer, stream)
        trainer = LoRATrainer(model, buffer)
        assert trainer.report.train_seconds == 0.0
        seen = []
        for _ in range(3):
            start = time.perf_counter()
            trainer.train_step()
            elapsed = time.perf_counter() - start
            seen.append(trainer.report.train_seconds)
            step = seen[-1] - (seen[-2] if len(seen) > 1 else 0.0)
            assert 0.0 < step <= elapsed

    def test_training_reduces_loss(self, world):
        model, stream, buffer = world
        _fill(buffer, stream, batches=6, n=128)
        trainer = LoRATrainer(
            model,
            buffer,
            TrainerConfig(lr=0.3, capacity_fraction=1.0, dynamic_prune=False),
        )
        losses = [trainer.train_step() for _ in range(80)]
        assert np.mean(losses[-20:]) < np.mean(losses[:20])

    def test_hot_filter_marks_trained_ids(self, world):
        model, stream, buffer = world
        _fill(buffer, stream)
        trainer = LoRATrainer(model, buffer)
        trainer.train_step()
        assert trainer.hot_filter._marked[0].any()

    def test_hot_ids_are_the_updated_rows_until_merge(self, world):
        model, stream, buffer = world
        _fill(buffer, stream)
        trainer = LoRATrainer(model, buffer)
        updated = [set() for _ in model.embeddings]
        for _ in range(3):
            trainer.train_step()
            for f, ids in enumerate(trainer.last_update_ids):
                updated[f].update(ids.tolist())
        for f, table in enumerate(model.embeddings):
            hot = trainer.hot_filter.is_hot(f, np.arange(table.num_rows))
            assert set(np.flatnonzero(hot).tolist()) == updated[f]
        trainer.merge_and_reset()
        for f, table in enumerate(model.embeddings):
            assert not trainer.hot_filter.is_hot(f, np.arange(table.num_rows)).any()

    def test_overlay_changes_predictions_after_training(self, world):
        model, stream, buffer = world
        _fill(buffer, stream)
        trainer = LoRATrainer(model, buffer, TrainerConfig(lr=0.3))
        for _ in range(10):
            trainer.train_step()
        ev = stream.eval_batch(64)
        base = model.predict(ev.dense, ev.sparse_ids)
        adapted = model.predict(ev.dense, ev.sparse_ids, overlay=trainer.overlay())
        assert not np.allclose(base, adapted)


class TestAdaptation:
    def test_dynamic_rank_grows_not_shrinks_live(self, world):
        model, stream, buffer = world
        _fill(buffer, stream, batches=8, n=128)
        trainer = LoRATrainer(
            model,
            buffer,
            TrainerConfig(rank=2, adapt_interval=4, dynamic_prune=False),
        )
        for _ in range(20):
            trainer.train_step()
        assert all(r >= 2 for r in trainer.report.current_ranks)

    def test_pending_shrink_applied_at_reset(self, world):
        model, stream, buffer = world
        _fill(buffer, stream, batches=8, n=128)
        trainer = LoRATrainer(
            model,
            buffer,
            TrainerConfig(rank=8, adapt_interval=4, dynamic_prune=False),
        )
        for _ in range(16):
            trainer.train_step()
        pending = dict(trainer._pending_shrink)
        trainer.merge_and_reset()
        for f, target in pending.items():
            assert trainer.lora[f].rank == target

    def test_pruning_bounds_capacity(self, world):
        model, stream, buffer = world
        _fill(buffer, stream, batches=8, n=128)
        trainer = LoRATrainer(
            model,
            buffer,
            TrainerConfig(rank=4, adapt_interval=4),
        )
        for _ in range(16):
            trainer.train_step()
        for f, table in enumerate(model.embeddings):
            assert trainer.lora[f].capacity <= table.num_rows

    def test_fixed_config_disables_adaptation(self, world):
        model, stream, buffer = world
        _fill(buffer, stream, batches=8, n=128)
        trainer = LoRATrainer(
            model,
            buffer,
            TrainerConfig(
                rank=4,
                adapt_interval=4,
                dynamic_rank=False,
                dynamic_prune=False,
            ),
        )
        caps = [ad.capacity for ad in trainer.lora]
        for _ in range(16):
            trainer.train_step()
        assert trainer.report.rank_changes == 0
        assert [ad.capacity for ad in trainer.lora] == caps


class TestMerge:
    def test_merge_moves_adapters_into_base(self, world):
        model, stream, buffer = world
        _fill(buffer, stream)
        trainer = LoRATrainer(model, buffer, TrainerConfig(lr=0.3))
        for _ in range(10):
            trainer.train_step()
        ev = stream.eval_batch(64)
        adapted = model.predict(ev.dense, ev.sparse_ids, overlay=trainer.overlay())
        merged_count = trainer.merge_and_reset()
        assert merged_count > 0
        base_after = model.predict(ev.dense, ev.sparse_ids)
        np.testing.assert_allclose(adapted, base_after, atol=1e-9)
        # post-merge overlay is a no-op (adapters reset, filter cleared)
        np.testing.assert_allclose(
            base_after,
            model.predict(ev.dense, ev.sparse_ids, overlay=trainer.overlay()),
        )

    def test_memory_bytes_positive(self, world):
        model, _, buffer = world
        trainer = LoRATrainer(model, buffer)
        assert trainer.memory_bytes() > 0

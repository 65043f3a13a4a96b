"""Tests for Algorithm 3: sparse data-parallel LoRA with priority merge."""

import numpy as np
import pytest

from repro.core.sync import SparseLoRASynchronizer, priority_merge
from repro.core.trainer import LoRATrainer, TrainerConfig
from repro.data.stream import InferenceLogBuffer
from repro.data.synthetic import DriftingCTRStream, StreamConfig
from repro.dlrm.model import DLRM, DLRMConfig

TABLE_SIZES = (80, 60)


def _make_trainers(n, seed=0):
    model = DLRM(
        DLRMConfig(
            num_dense=3,
            embedding_dim=8,
            table_sizes=TABLE_SIZES,
            bottom_mlp=(8,),
            top_mlp=(8,),
            seed=seed,
        )
    )
    trainers = []
    for r in range(n):
        trainers.append(
            LoRATrainer(
                model.copy(),
                InferenceLogBuffer(600),
                TrainerConfig(
                    rank=4,
                    dynamic_rank=False,
                    dynamic_prune=False,
                    lr=0.1,
                    seed=r,
                ),
            )
        )
    return trainers


def _stream(seed=1):
    return DriftingCTRStream(
        StreamConfig(table_sizes=TABLE_SIZES, num_dense=3, seed=seed)
    )


class TestPriorityMerge:
    def test_highest_rank_wins(self):
        merged = priority_merge(
            [
                {1: np.array([1.0]), 2: np.array([1.0])},
                {1: np.array([2.0])},
                {2: np.array([3.0])},
            ]
        )
        assert merged[1][0] == 2.0  # rank 1 beats rank 0
        assert merged[2][0] == 3.0  # rank 2 beats rank 0

    def test_disjoint_union(self):
        merged = priority_merge(
            [{1: np.array([1.0])}, {2: np.array([2.0])}]
        )
        assert set(merged) == {1, 2}

    def test_empty(self):
        assert priority_merge([]) == {}


class TestSynchronizer:
    def test_validation(self):
        with pytest.raises(ValueError):
            SparseLoRASynchronizer([], sync_interval=4)
        with pytest.raises(ValueError):
            SparseLoRASynchronizer(_make_trainers(1), sync_interval=0)

    def test_sync_fires_on_interval(self):
        trainers = _make_trainers(2)
        sync = SparseLoRASynchronizer(trainers, sync_interval=3)
        stream = _stream()
        for step in range(6):
            batches = []
            for _ in range(2):
                b = stream.next_batch(32)
                batches.append((b.dense, b.sparse_ids, b.labels))
            sync.step_all(batches)
        assert sync.rounds == 2
        assert len(sync.reports) == 2

    def test_replicas_converge_after_sync(self):
        trainers = _make_trainers(2)
        sync = SparseLoRASynchronizer(trainers, sync_interval=100)
        stream = _stream()
        for _ in range(5):
            batches = []
            for _ in range(2):
                b = stream.next_batch(32)
                batches.append((b.dense, b.sparse_ids, b.labels))
            sync.step_all(batches)
        diverged = sync.replica_divergence(0)
        assert diverged > 0
        sync.sync()
        converged = sync.replica_divergence(0)
        assert converged < diverged * 0.1

    def test_sync_report_accounting(self):
        trainers = _make_trainers(2)
        sync = SparseLoRASynchronizer(trainers, sync_interval=1)
        stream = _stream()
        b = stream.next_batch(32)
        batches = [(b.dense, b.sparse_ids, b.labels)] * 2
        sync.step_all(batches)
        report = sync.reports[0]
        assert report.merged_rows > 0
        assert report.bytes_exchanged > 0
        assert report.total_seconds > 0

    def test_bytes_exchanged_counts_float32_rows(self):
        trainers = _make_trainers(2)
        sync = SparseLoRASynchronizer(trainers, sync_interval=100)
        stream = _stream()
        for r in range(2):
            b = stream.next_batch(32)
            sync.local_step(r, b.dense, b.sparse_ids, b.labels)
        gathered = sum(
            t.lora[f].gather_rows(sync._support_ids(r, f))[0].size
            for r, t in enumerate(trainers)
            for f in range(sync.num_fields)
        )
        assert gathered > 0
        assert trainers[0].lora[0].a.dtype == np.float32
        report = sync.sync()
        # rank 4 columns of 4-byte rows per gathered id
        assert report.bytes_exchanged == gathered * 4 * 4

    def test_supports_cleared_after_sync(self):
        trainers = _make_trainers(2)
        sync = SparseLoRASynchronizer(trainers, sync_interval=1)
        stream = _stream()
        b = stream.next_batch(16)
        sync.step_all([(b.dense, b.sparse_ids, b.labels)] * 2)
        assert all(
            not s for rank_s in sync._supports for s in rank_s
        )

    def test_support_is_the_steps_resolved_ids(self):
        trainers = _make_trainers(2)
        sync = SparseLoRASynchronizer(trainers, sync_interval=100)
        b = _stream().next_batch(64)
        sync.local_step(1, b.dense, b.sparse_ids, b.labels)
        for f in range(sync.num_fields):
            np.testing.assert_array_equal(
                sync._support_ids(1, f), np.unique(b.sparse_ids[:, f])
            )
            assert sync._support_ids(0, f).size == 0

    def test_single_rank_sync_is_trivial(self):
        trainers = _make_trainers(1)
        sync = SparseLoRASynchronizer(trainers, sync_interval=1)
        stream = _stream()
        b = stream.next_batch(16)
        sync.step_all([(b.dense, b.sparse_ids, b.labels)])
        assert sync.replica_divergence(0) == 0.0

    def test_merged_values_propagate_to_all_ranks(self):
        trainers = _make_trainers(3)
        sync = SparseLoRASynchronizer(trainers, sync_interval=100)
        stream = _stream()
        # only rank 2 trains
        b = stream.next_batch(32)
        sync.local_step(2, b.dense, b.sparse_ids, b.labels)
        sync.sync()
        ids = trainers[2].lora[0].active_ids
        if ids.size:
            src = trainers[2].lora[0].delta_rows(ids)
            for other in (0, 1):
                np.testing.assert_allclose(
                    trainers[other].lora[0].delta_rows(ids), src, atol=1e-9
                )

    def test_losses_returned_per_rank(self):
        trainers = _make_trainers(2)
        sync = SparseLoRASynchronizer(trainers, sync_interval=10)
        stream = _stream()
        b = stream.next_batch(16)
        losses = sync.step_all([(b.dense, b.sparse_ids, b.labels)] * 2)
        assert len(losses) == 2
        assert all(l > 0 for l in losses)


class TestStoreBroadcastPath:
    """Merged rows publish to the sharded parameter plane when attached."""

    def test_sync_publishes_merged_rows(self):
        from repro.cluster.shardstore import ShardClient, ShardedParameterStore

        trainers = _make_trainers(2)
        store = ShardedParameterStore(num_shards=2, row_bytes=4 * 8)
        sync = SparseLoRASynchronizer(trainers, sync_interval=10, store=store)
        observer = ShardClient(store)
        stream = _stream()
        b = stream.next_batch(32)
        sync.local_step(0, b.dense, b.sparse_ids, b.labels)
        sync.local_step(1, b.dense, b.sparse_ids, b.labels)
        report = sync.sync()
        assert len(sync.publish_reports) == 1
        # one version bump per round, covering every field's merged rows
        assert store.version == 1
        assert sync.publish_reports[0].rows == report.merged_rows
        deltas, pull = observer.pull_tables(
            [f"lora_a/{f}" for f in range(sync.num_fields)]
        )
        assert pull.rows == report.merged_rows
        # the published rows match the merged A rows every rank applied
        for f in range(sync.num_fields):
            got_ids, got_rows = deltas[f"lora_a/{f}"]
            if got_ids.size:
                ids, rows = trainers[0].lora[f].gather_rows(got_ids)
                np.testing.assert_array_equal(got_ids, ids)
                np.testing.assert_allclose(got_rows, rows, atol=1e-9)

    @pytest.mark.parametrize("merge_policy", ["priority", "average"])
    def test_an_untouched_round_stays_on_the_float32_lane(self, merge_policy):
        """A round no rank touched a row in merges to empty float32 rows,
        and the rounds around it publish and apply float32 end to end."""
        from repro.cluster.shardstore import ShardClient, ShardedParameterStore
        from repro.core.sync import average_merge_rows, priority_merge_rows

        trainers = _make_trainers(2)
        store = ShardedParameterStore(num_shards=2, row_bytes=None, row_dim=4)
        sync = SparseLoRASynchronizer(
            trainers, sync_interval=10, merge_policy=merge_policy, store=store
        )
        observer = ShardClient(store)
        b = _stream().next_batch(32)
        sync.local_step(0, b.dense, b.sparse_ids, b.labels)
        sync.local_step(1, b.dense, b.sparse_ids, b.labels)
        assert sync.sync().merged_rows > 0
        assert sync.sync().merged_rows == 0  # nobody stepped since

        merge = priority_merge_rows if merge_policy == "priority" else average_merge_rows
        untouched = np.empty(0, dtype=np.int64)
        per_rank = [t.lora[0].gather_rows(untouched) for t in trainers]
        ids, rows = merge(per_rank, 4)
        assert ids.size == 0
        assert rows.shape == (0, 4) and rows.dtype == np.float32

        deltas, pull = observer.pull_tables(
            [f"lora_a/{f}" for f in range(sync.num_fields)]
        )
        assert pull.rows > 0
        for _, got_rows in deltas.values():
            assert got_rows.dtype == np.float32
        for trainer in trainers:
            for adapter in trainer.lora:
                assert adapter.a.dtype == adapter.b.dtype == np.float32

    def test_no_store_means_no_publishing(self):
        trainers = _make_trainers(2)
        sync = SparseLoRASynchronizer(trainers, sync_interval=10)
        stream = _stream()
        b = stream.next_batch(16)
        sync.local_step(0, b.dense, b.sparse_ids, b.labels)
        sync.sync()
        assert sync.store_client is None
        assert sync.publish_reports == []

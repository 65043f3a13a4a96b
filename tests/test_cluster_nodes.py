"""Tests for TrainingCluster and InferenceNode actors."""

import numpy as np
import pytest

from repro.cluster.faults import FaultEvent, FaultPlane, FaultSchedule
from repro.cluster.nodes import InferenceNode, TrainingCluster
from repro.cluster.resilience import DegradedReadError, ResiliencePolicy
from repro.cluster.shardstore import ShardClient, ShardedParameterStore
from repro.data.synthetic import DriftingCTRStream, StreamConfig
from repro.dlrm.model import DLRM, DLRMConfig


def _model_and_stream(table_sizes=(50, 40)):
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
    return model, stream


@pytest.fixture
def world():
    model, stream = _model_and_stream()
    server = ShardedParameterStore(row_bytes=4 * 8)
    trainer = TrainingCluster(model.copy(), server)
    node = InferenceNode(model.copy(), server)
    return stream, trainer, node


class TestTrainingCluster:
    def test_training_returns_loss(self, world):
        stream, trainer, _ = world
        loss = trainer.train_on(stream.next_batch(16))
        assert loss > 0
        assert trainer.steps_trained == 1

    def test_publish_changed_rows(self, world):
        stream, trainer, _ = world
        trainer.train_on(stream.next_batch(16))
        report = trainer.publish_changed_rows()
        assert report.rows_pushed > 0
        assert report.bytes_pushed == report.rows_pushed * 32
        assert report.transfer_seconds > 0
        # touch log resets after publish
        assert trainer.publish_changed_rows().rows_pushed == 0

    def test_frozen_dense_training(self, world):
        stream, trainer, _ = world
        before = trainer.model.bottom.weights[0].copy()
        trainer.train_on(stream.next_batch(16), update_dense=False)
        np.testing.assert_array_equal(before, trainer.model.bottom.weights[0])


class TestInferenceNode:
    def test_predict_shape(self, world):
        stream, _, node = world
        batch = stream.next_batch(8)
        assert node.predict(batch).shape == (8,)

    def test_pull_applies_published_rows(self, world):
        stream, trainer, node = world
        trainer.train_on(stream.next_batch(32))
        trainer.publish_changed_rows()
        assert node.staleness_versions() > 0
        report = node.pull_updates()
        assert report.rows_pulled > 0
        assert node.staleness_versions() == 0
        # node's pulled rows now match the trainer's
        changed = np.array(
            sorted(
                set(node.model.embeddings[0].touched_rows().tolist())
            )
        )
        if changed.size:
            np.testing.assert_allclose(
                node.model.embeddings[0].weight[changed],
                trainer.model.embeddings[0].weight[changed],
            )

    def test_pull_drops_negative_and_out_of_range_ids(self, world):
        """The store accepts any int64 id; a node applies only the ids
        its tables hold.  A negative id would otherwise index from the
        end of the table and overwrite a live row."""
        _, _, node = world
        served = [table.weight.copy() for table in node.model.embeddings]
        num_rows = node.model.embeddings[0].num_rows
        dim = node.model.embeddings[0].dim
        ShardClient(node.server).publish(
            "table_0", np.array([-5, num_rows]), np.full((2, dim), 7.0)
        )
        report = node.pull_updates()
        assert report.rows_pulled == 0 and report.bytes_pulled == 0
        assert node.staleness_versions() == 0
        for mine, before in zip(node.model.embeddings, served):
            np.testing.assert_array_equal(mine.weight, before)

    def test_pull_applies_in_range_ids_beside_dropped_ones(self, world):
        _, _, node = world
        table = node.model.embeddings[0]
        before = table.weight.copy()
        rows = np.arange(3 * table.dim, dtype=float).reshape(3, table.dim)
        ShardClient(node.server).publish(
            "table_0", np.array([-5, 3, table.num_rows]), rows
        )
        report = node.pull_updates()
        assert report.rows_pulled == 1
        assert report.bytes_pulled == node.server.row_bytes
        np.testing.assert_array_equal(table.weight[3], rows[1])
        untouched = np.arange(table.num_rows) != 3
        np.testing.assert_array_equal(table.weight[untouched], before[untouched])

    def test_pull_nothing_is_cheap(self, world):
        _, _, node = world
        report = node.pull_updates()
        assert report.rows_pulled == 0
        assert report.transfer_seconds == 0.0

    def test_adopt_model_copies_state(self, world):
        stream, trainer, node = world
        for _ in range(5):
            trainer.train_on(stream.next_batch(32))
        node.adopt_model(trainer.model)
        np.testing.assert_allclose(
            node.model.embeddings[0].weight,
            trainer.model.embeddings[0].weight,
        )
        batch = stream.next_batch(8)
        np.testing.assert_allclose(
            node.predict(batch), trainer.model.predict(batch.dense, batch.sparse_ids)
        )

    def test_pull_log_grows(self, world):
        _, _, node = world
        node.pull_updates()
        node.pull_updates()
        assert len(node.pull_log) == 2


class TestNodePullUnderFaults:
    def _replicated(self, resilient: bool):
        model, stream = _model_and_stream()
        store = ShardedParameterStore(num_shards=4, row_bytes=4 * 8, replication=3)
        trainer = TrainingCluster(model.copy(), store)
        node = InferenceNode(model.copy(), store)
        if resilient:
            node.client = ShardClient(store, resilience=ResiliencePolicy())
        return stream, store, trainer, node

    @pytest.mark.parametrize("resilient", [False, True], ids=["plain", "resilient"])
    def test_replica_exhaustion_raises_and_catches_up_after_repair(self, resilient):
        """Exhausted replicas never move the node: a plain client raises,
        a resilient one reports ``degraded=True``; either way every weight
        stays the one last applied, the node is behind by exactly the
        unseen publish, and the pull after repair reads the gap in full."""
        stream, store, trainer, node = self._replicated(resilient)
        trainer.train_on(stream.next_batch(32))
        trainer.publish_changed_rows()
        node.pull_updates()
        trainer.train_on(stream.next_batch(32))
        trainer.publish_changed_rows()
        served = [table.weight.copy() for table in node.model.embeddings]
        for sid in store.shard_ids[:3]:
            store.kill_shard(sid)
        if resilient:
            report = node.pull_updates()
            assert report.degraded and report.rows_pulled == 0
            assert report.version == node.synced_version == 1
            assert len(node.pull_log) == 2
        else:
            with pytest.raises(DegradedReadError):
                node.pull_updates()
            assert len(node.pull_log) == 1  # nothing applied, nothing reported
        assert node.staleness_versions() == store.version - 1 == 1
        for mine, before in zip(node.model.embeddings, served):
            np.testing.assert_array_equal(mine.weight, before)
        for sid in list(store.down_shard_ids):
            store.revive_shard(sid)
        store.repair()
        gap = sum(
            int(store.pull_delta(f"table_{f}", 1)[0].size)
            for f in range(len(node.model.embeddings))
        )
        report = node.pull_updates()
        assert not report.degraded and report.rows_pulled == gap > 0
        assert node.staleness_versions() == 0
        for mine, theirs in zip(node.model.embeddings, trainer.model.embeddings):
            np.testing.assert_array_equal(mine.weight, theirs.weight)

    def test_resilient_pull_reports_the_clients_modelled_seconds(self):
        """A slow replica costs the resilient wave time; the node reports
        the client's number, not a re-derived alpha-beta transfer."""
        stream, store, trainer, node = self._replicated(resilient=True)
        plane = FaultPlane(
            store, FaultSchedule([FaultEvent(0.0, "slow_node", 0, factor=20.0)])
        )
        plane.advance_to(0.0)
        node.client.faults = plane
        trainer.train_on(stream.next_batch(32))
        trainer.publish_changed_rows()
        report = node.pull_updates()
        transfer = node.client.pull_log[-1]
        assert report.transfer_seconds == transfer.seconds
        assert report.bytes_pulled == transfer.bytes > 0  # every id in range
        assert report.transfer_seconds > node.client.transfer_seconds(
            report.bytes_pulled
        )

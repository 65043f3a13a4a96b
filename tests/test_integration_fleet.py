"""Fleet-level integration: routing, consistency, local LoRA, full sync.

Simulates a small production fleet end-to-end: a consistent-hash router
shards traffic across inference nodes, each node runs a LiveUpdate trainer
on its shard, an hourly full sync re-adopts the trainer's model, and the
consistency checker verifies the fleet before/after.
"""

import numpy as np
import pytest

from repro.cluster import (
    InferenceNode,
    ShardedParameterStore,
    TrainingCluster,
    check_prediction_consistency,
)
from repro.core import LiveUpdate, LiveUpdateConfig, TrainerConfig
from repro.data import DriftingCTRStream, StreamConfig
from repro.dlrm import DLRM, DLRMConfig, auc_roc
from repro.serving import ConsistentHashRouter

TABLE_SIZES = (600, 400)
NUM_NODES = 3


@pytest.fixture(scope="module")
def fleet_world():
    stream = DriftingCTRStream(
        StreamConfig(table_sizes=TABLE_SIZES, num_dense=4, seed=5)
    )
    model = DLRM(
        DLRMConfig(
            num_dense=4,
            embedding_dim=16,
            table_sizes=TABLE_SIZES,
            bottom_mlp=(16,),
            top_mlp=(32,),
            seed=0,
        )
    )
    server = ShardedParameterStore()
    cluster = TrainingCluster(model.copy(), server)
    # warm the Day-1 checkpoint
    for _ in range(150):
        batch = stream.next_batch(256, duration_s=1.0)
        cluster.train_on(batch)
    nodes = [
        InferenceNode(cluster.model.copy(), server, node_id=i)
        for i in range(NUM_NODES)
    ]
    lives = [
        LiveUpdate(
            node,
            trainer_cluster=cluster,
            trainer_config=TrainerConfig(
                rank=6, lr=0.25, dynamic_rank=False, seed=i
            ),
            config=LiveUpdateConfig(steps_per_slot=3),
        )
        for i, node in enumerate(nodes)
    ]
    router = ConsistentHashRouter(list(range(NUM_NODES)))

    rng = np.random.default_rng(9)
    # --- serve 20 simulated minutes of routed traffic -------------------
    for slot in range(40):
        cluster.train_on(stream.next_batch(128))
        batch = stream.next_batch(384, local=True)
        users = rng.integers(0, 1 << 31, batch.size)
        assignment = router.route(users)
        for node_id in range(NUM_NODES):
            mask = assignment == node_id
            if not mask.any():
                continue
            from repro.data import Batch

            shard = Batch(
                timestamp=batch.timestamp,
                dense=batch.dense[mask],
                sparse_ids=batch.sparse_ids[mask],
                labels=batch.labels[mask],
            )
            nodes[node_id].predict(shard, overlay=lives[node_id].overlay())
            lives[node_id].on_serving_batch(shard)
            lives[node_id].on_slot(now=stream.now)
        stream.advance(30.0)
        router.reset_window()
    return stream, cluster, nodes, lives, router


class TestFleetServing:
    def test_every_node_received_traffic(self, fleet_world):
        _, _, _, lives, _ = fleet_world
        for live in lives:
            assert len(live.buffer) > 0
            assert live.trainer.report.steps > 0

    def test_local_adaptation_beats_stale_base(self, fleet_world):
        stream, _, nodes, lives, _ = fleet_world
        ev = stream.eval_batch(4000, local=True)
        for node, live in zip(nodes, lives):
            base = auc_roc(ev.labels, node.predict(ev))
            adapted = auc_roc(ev.labels, node.predict(ev, overlay=live.overlay()))
            assert adapted > base - 0.005  # adaptation never catastrophically hurts
        mean_base = np.mean(
            [auc_roc(ev.labels, n.predict(ev)) for n in nodes]
        )
        mean_adapted = np.mean(
            [
                auc_roc(ev.labels, n.predict(ev, overlay=l.overlay()))
                for n, l in zip(nodes, lives)
            ]
        )
        assert mean_adapted > mean_base

    def test_base_parameters_stay_consistent(self, fleet_world):
        """Local adaptation must not touch base replicas (they stay identical)."""
        stream, _, nodes, _, _ = fleet_world
        probe = stream.eval_batch(128)
        report = check_prediction_consistency([n.model for n in nodes], probe)
        assert report.consistent

    def test_full_sync_restores_fleet(self, fleet_world):
        stream, cluster, nodes, _, _ = fleet_world
        for node in nodes:
            node.adopt_model(cluster.model)
        probe = stream.eval_batch(128)
        report = check_prediction_consistency([n.model for n in nodes], probe)
        assert report.consistent
        np.testing.assert_array_equal(
            nodes[0].predict(probe),
            cluster.model.predict(probe.dense, probe.sparse_ids),
        )

    def test_router_balanced_the_shard_load(self, fleet_world):
        _, _, _, lives, router = fleet_world
        sizes = [len(l.buffer) + l.buffer.total_evicted for l in lives]
        assert max(sizes) < 2.5 * min(sizes)
        assert router.stats.routed > 0

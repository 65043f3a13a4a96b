"""Fault-injection plane tests, plus failure coverage for the replicated
store as the ``TrainingCluster`` publish path and an ``InferenceNode`` see it.

Satellite 4 of ISSUE 9: a mid-window shard kill must surface to the
trainer as a typed ``QuorumError`` with the window's rows retained (loud
and retryable, never silent row loss), and an inference node's staleness
must recover within one sync window after revive + repair.
"""

from __future__ import annotations

import numpy as np
import pytest

from faultlib import random_schedule
from reference.replication import check_replica_convergence, staged_rows
from repro.cluster.faults import FaultEvent, FaultPlane, FaultSchedule
from repro.cluster.nodes import InferenceNode, TrainingCluster
from repro.cluster.shardstore import QuorumError, ShardedParameterStore
from repro.data.synthetic import DriftingCTRStream, StreamConfig
from repro.dlrm.model import DLRM, DLRMConfig


class TestFaultEvent:
    def test_kind_validated(self):
        with pytest.raises(ValueError):
            FaultEvent(0.0, "explode", 1)

    def test_shard_required_except_delay(self):
        with pytest.raises(ValueError):
            FaultEvent(0.0, "kill")
        FaultEvent(0.0, "delay", factor=2.0)  # fine without a shard

    def test_delay_factor_bounds(self):
        with pytest.raises(ValueError):
            FaultEvent(0.0, "delay", factor=0.5)


class TestFaultSchedule:
    def test_events_sorted_and_due_is_monotone(self):
        schedule = FaultSchedule(
            [
                FaultEvent(5.0, "kill", 1),
                FaultEvent(1.0, "drop_publish", 2),
                FaultEvent(3.0, "delay", factor=2.0),
            ]
        )
        assert [e.at_s for e in schedule.events] == [1.0, 3.0, 5.0]
        assert [e.kind for e in schedule.due(3.0)] == ["drop_publish", "delay"]
        assert schedule.due(3.0) == []  # consumed exactly once
        assert [e.kind for e in schedule.due(10.0)] == ["kill"]
        assert schedule.remaining == 0

    def test_random_is_seed_deterministic(self):
        a = random_schedule(7, list(range(8)))
        b = random_schedule(7, list(range(8)))
        assert a.events == b.events
        c = random_schedule(8, list(range(8)))
        assert a.events != c.events

    def test_random_respects_concurrency_bound(self):
        for seed in range(10):
            schedule = random_schedule(
                seed, list(range(8)), kills=6, horizon_s=200.0,
                max_concurrent_down=2,
            )
            down: set[int] = set()
            for event in schedule.events:
                if event.kind == "kill":
                    assert event.shard_id not in down
                    down.add(event.shard_id)
                    assert len(down) <= 2
                elif event.kind == "revive":
                    assert event.shard_id in down
                    down.discard(event.shard_id)

    def test_random_validation(self):
        with pytest.raises(ValueError):
            random_schedule(0, [])
        with pytest.raises(ValueError):
            random_schedule(0, [1], max_concurrent_down=0)


class TestFaultPlane:
    def test_dispatch_kill_revive_drop_delay(self):
        store = ShardedParameterStore(
            num_shards=4, row_bytes=None, row_dim=2, replication=3
        )
        schedule = FaultSchedule(
            [
                FaultEvent(1.0, "kill", 2),
                FaultEvent(2.0, "delay", factor=3.0),
                FaultEvent(3.0, "revive", 2),
                FaultEvent(4.0, "drop_publish", 0),
                FaultEvent(5.0, "delay", factor=1.0),
            ]
        )
        plane = FaultPlane(store, schedule)
        plane.advance_to(1.5)
        assert store.down_shard_ids == [2]
        plane.advance_to(2.5)
        assert plane.delay_factor == 3.0
        plane.advance_to(3.5)
        assert store.down_shard_ids == []
        plane.advance_to(4.5)
        version = store.publish_batch("t", np.arange(50), np.zeros((50, 2)))
        assert store._missed[0] == [version]
        plane.advance_to(5.5)
        assert plane.delay_factor == 1.0
        assert len(plane.injected) == 5

    def test_delay_factor_slows_client_transfers(self):
        from repro.cluster.shardstore import ShardClient

        store = ShardedParameterStore(num_shards=4, row_dim=2)
        plane = FaultPlane(
            store, FaultSchedule([FaultEvent(0.0, "delay", factor=4.0)])
        )
        client = ShardClient(store, faults=plane)
        healthy = client.transfer_seconds(10_000)
        plane.advance_to(0.0)
        assert client.transfer_seconds(10_000) == pytest.approx(4.0 * healthy)


@pytest.fixture
def replicated_world():
    table_sizes = (50, 40)
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
    server = ShardedParameterStore(
        num_shards=4, row_bytes=4 * 8, replication=3
    )
    trainer = TrainingCluster(model.copy(), server)
    node = InferenceNode(model.copy(), server)
    return stream, server, trainer, node


class TestFacadeFailureSemantics:
    """The failure semantics the seed parameter-server API promised, pinned
    on the replicated store the trainer and node now hold directly."""

    def test_facade_exposes_failure_surface(self, replicated_world):
        _, server, _, _ = replicated_world
        server.kill_shard(1)
        assert server.down_shard_ids == [1]
        server.revive_shard(1)
        report = server.repair()
        assert report.shards_healed == []
        assert server.compact() == 0

    def test_midwindow_kill_surfaces_as_quorum_error(self, replicated_world):
        """Killing a quorum of shards mid-window: the trainer's publish
        raises (typed), the window's rows stay staged, and a retry after
        revival publishes every one of them — zero silent loss."""
        stream, server, trainer, _ = replicated_world
        trainer.train_on(stream.next_batch(32))
        server.kill_shard(0)
        server.kill_shard(1)  # R=3 over 4 shards: some row must lose quorum
        with pytest.raises(QuorumError):
            trainer.publish_changed_rows()
        staged = staged_rows(trainer.client)
        assert staged > 0  # the window survived the refusal
        assert server.version == 0
        server.revive_shard(0)
        server.revive_shard(1)
        report = trainer.publish_changed_rows()  # retry the same window
        assert report.rows_pushed == staged
        assert server.version == 1

    def test_staleness_recovers_within_one_window_after_revive(
        self, replicated_world
    ):
        """An inference node refreshed after revive+repair is exactly
        version-current and prediction-consistent with the trainer."""
        stream, server, trainer, node = replicated_world
        # healthy window (dense frozen: the parameter plane only carries
        # embedding rows, so embedding sync must imply prediction sync)
        trainer.train_on(stream.next_batch(32), update_dense=False)
        trainer.publish_changed_rows()
        node.pull_updates()
        assert node.staleness_versions() == 0
        # a replica dies; training continues; publishes still ack (1 < quorum)
        server.kill_shard(2)
        trainer.train_on(stream.next_batch(32), update_dense=False)
        trainer.publish_changed_rows()
        # revive + repair, then ONE sync window
        server.revive_shard(2)
        server.repair()
        assert check_replica_convergence(server).converged
        node.pull_updates()
        assert node.staleness_versions() == 0
        # node parameters match the trainer's on every published row
        probe = stream.next_batch(64)
        np.testing.assert_allclose(
            node.predict(probe), trainer.model.predict(
                probe.dense, probe.sparse_ids
            ),
        )


class TestGrayFailureEvents:
    def test_slow_node_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(0.0, "slow_node", 1, factor=0.5)
        with pytest.raises(ValueError):
            FaultEvent(0.0, "slow_node", factor=2.0)  # needs a shard
        FaultEvent(0.0, "slow_node", 1, factor=1.0)  # 1.0 clears: valid

    @pytest.mark.parametrize("kind", ["partition", "flap", "crash"])
    def test_unknown_kinds_are_refused(self, kind):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent(0.0, kind, 1)


class TestGrayFailureDispatch:
    def test_slow_node_sets_and_clears_per_shard_factor(self):
        store = ShardedParameterStore(num_shards=4, row_dim=2)
        plane = FaultPlane(
            store,
            FaultSchedule(
                [
                    FaultEvent(1.0, "slow_node", 2, factor=8.0),
                    FaultEvent(3.0, "slow_node", 2, factor=1.0),
                ]
            ),
        )
        assert plane.slow_factor(2) == 1.0
        plane.advance_to(1.0)
        assert plane.slow_factor(2) == 8.0
        assert plane.slow_factor(1) == 1.0  # gray failure is per shard
        assert store.down_shard_ids == []  # slow, not dead
        plane.advance_to(3.0)
        assert plane.slow_factor(2) == 1.0

    def test_bouncing_shard_ends_healthy(self):
        store = ShardedParameterStore(num_shards=4, row_dim=2)
        plane = FaultPlane(
            store,
            FaultSchedule(
                [
                    FaultEvent(at, kind, 1)
                    for at, kind in [
                        (0.0, "kill"), (0.5, "revive"), (1.0, "kill"), (1.5, "revive"),
                    ]
                ]
            ),
        )
        plane.advance_to(0.4)
        assert store.down_shard_ids == [1]  # mid-bounce: down
        plane.advance_to(10.0)
        assert store.down_shard_ids == []
        assert plane.skipped == []
        assert len(plane.injected) == 4


class TestScheduleEdgeCases:
    """Satellite 3 of ISSUE 10: overlap, zero-duration, and tie-break
    semantics of hand-built schedules, pinned for replay determinism."""

    def test_overlapping_kill_revive_of_same_shard_is_tolerant(self):
        store = ShardedParameterStore(num_shards=4, row_dim=2)
        plane = FaultPlane(
            store,
            FaultSchedule(
                [
                    FaultEvent(1.0, "kill", 2),
                    FaultEvent(2.0, "kill", 2),    # already down
                    FaultEvent(3.0, "revive", 2),
                    FaultEvent(4.0, "revive", 2),  # already up
                ]
            ),
        )
        plane.advance_to(5.0)
        assert store.down_shard_ids == []
        assert [(e.at_s, e.kind) for e in plane.skipped] == [
            (2.0, "kill"), (4.0, "revive"),
        ]
        assert len(plane.injected) == 2  # skips are recorded, not injected

    def test_bounce_over_externally_killed_shard_skips_its_kill(self):
        store = ShardedParameterStore(num_shards=4, row_dim=2)
        store.kill_shard(1)
        plane = FaultPlane(
            store,
            FaultSchedule([FaultEvent(0.0, "kill", 1), FaultEvent(0.5, "revive", 1)]),
        )
        plane.advance_to(2.0)
        assert [e.kind for e in plane.skipped] == ["kill"]
        assert store.down_shard_ids == []  # the bounce still ends it revived

    def test_zero_duration_delay_pair_resolves_by_insertion_order(self):
        store = ShardedParameterStore(num_shards=4, row_dim=2)
        plane = FaultPlane(
            store,
            FaultSchedule(
                [
                    FaultEvent(2.0, "delay", factor=3.0),
                    FaultEvent(2.0, "delay", factor=1.0),
                ]
            ),
        )
        plane.advance_to(2.0)
        assert plane.delay_factor == 1.0  # later insertion wins the tie
        assert len(plane.injected) == 2  # both fired, neither was dropped

        reversed_plane = FaultPlane(
            ShardedParameterStore(num_shards=4, row_dim=2),
            FaultSchedule(
                [
                    FaultEvent(2.0, "delay", factor=1.0),
                    FaultEvent(2.0, "delay", factor=3.0),
                ]
            ),
        )
        reversed_plane.advance_to(2.0)
        assert reversed_plane.delay_factor == 3.0

    def test_identical_timestamps_keep_insertion_order(self):
        schedule = FaultSchedule(
            [
                FaultEvent(5.0, "kill", 1),
                FaultEvent(5.0, "revive", 1),
                FaultEvent(1.0, "drop_publish", 0),
            ]
        )
        # stable sort: t=1 moves first, the t=5 tie keeps insertion order
        assert [(e.at_s, e.kind) for e in schedule.events] == [
            (1.0, "drop_publish"), (5.0, "kill"), (5.0, "revive"),
        ]

    def test_identical_timestamp_dispatch_is_deterministic(self):
        # kill-then-revive at the same instant: a zero-duration outage,
        # shard ends up healthy and nothing is skipped
        store = ShardedParameterStore(num_shards=4, row_dim=2)
        plane = FaultPlane(
            store,
            FaultSchedule(
                [FaultEvent(5.0, "kill", 1), FaultEvent(5.0, "revive", 1)]
            ),
        )
        plane.advance_to(5.0)
        assert store.down_shard_ids == []
        assert plane.skipped == []
        # revive-then-kill at the same instant: the revive is a no-op
        # skip (shard was up) and the kill lands — order is insertion
        # order, bit-for-bit, never a hash or dict accident
        store2 = ShardedParameterStore(num_shards=4, row_dim=2)
        plane2 = FaultPlane(
            store2,
            FaultSchedule(
                [FaultEvent(5.0, "revive", 1), FaultEvent(5.0, "kill", 1)]
            ),
        )
        plane2.advance_to(5.0)
        assert store2.down_shard_ids == [1]
        assert [e.kind for e in plane2.skipped] == ["revive"]

"""Tests for the batched ShardClient sessions."""

import numpy as np
import pytest

from reference.replication import staged_rows
from repro.cluster.shardstore import ShardClient, ShardedParameterStore


@pytest.fixture
def store():
    return ShardedParameterStore(num_shards=4, row_bytes=32, row_dim=4)


class TestStagedPublish:
    def test_flush_is_one_version_bump(self, store):
        client = ShardClient(store)
        client.stage("a", np.arange(10), np.zeros((10, 4)))
        client.stage("b", np.arange(5), np.ones((5, 4)))
        client.stage("a", np.arange(10, 14), np.ones((4, 4)))
        assert store.version == 0  # nothing hit the store yet
        assert staged_rows(client) == 19
        report = client.flush()
        assert store.version == 1
        assert report.version == 1
        assert report.rows == 19
        assert report.bytes == 19 * 32
        assert report.seconds > 0
        assert sorted(report.tables) == ["a", "b"]

    def test_empty_flush_is_free(self, store):
        client = ShardClient(store)
        report = client.flush()
        assert report.rows == 0
        assert report.seconds == 0.0
        assert store.version == 0

    def test_publish_convenience(self, store):
        client = ShardClient(store)
        report = client.publish("t", np.array([1, 2]), np.zeros((2, 4)))
        assert report.rows == 2
        assert store.version == 1
        assert len(client.push_log) == 1

    def test_flush_matches_direct_store_publish(self, store):
        """Client-batched rows land exactly where direct publishes would."""
        other = ShardedParameterStore(num_shards=4, row_bytes=32, row_dim=4)
        rng = np.random.default_rng(3)
        ids = rng.choice(500, size=64, replace=False)
        rows = rng.normal(size=(64, 4))
        ShardClient(store).publish("t", ids, rows)
        other.publish_batch("t", ids, rows)
        for sid in store.shard_ids:
            np.testing.assert_array_equal(
                store.shards[sid].resident_ids("t"),
                other.shards[sid].resident_ids("t"),
            )

    def test_stage_validation(self, store):
        client = ShardClient(store)
        with pytest.raises(ValueError):
            client.stage("t", np.array([0]), np.zeros((2, 4)))


class TestBatchedPull:
    def test_pull_tables_advances_sync_point(self, store):
        producer = ShardClient(store)
        consumer = ShardClient(store)
        producer.publish("a", np.arange(6), np.ones((6, 4)))
        producer.publish("b", np.arange(3), np.ones((3, 4)))
        assert consumer.staleness_versions() == 2
        deltas, report = consumer.pull_tables(["a", "b"])
        assert deltas["a"][0].tolist() == list(range(6))
        assert deltas["b"][0].tolist() == list(range(3))
        assert report.rows == 9
        assert report.seconds > 0
        assert consumer.staleness_versions() == 0
        # a second pull sees nothing new
        deltas, report = consumer.pull_tables(["a", "b"])
        assert report.rows == 0

    def test_mark_synced_skips_pending_deltas(self, store):
        producer = ShardClient(store)
        consumer = ShardClient(store)
        producer.publish("a", np.arange(4), np.ones((4, 4)))
        consumer.mark_synced()
        _, report = consumer.pull_tables(["a"])
        assert report.rows == 0

    def test_pull_is_o_changed_not_o_world(self, store):
        """Delta pulls read only changed log entries, not the whole table."""
        producer = ShardClient(store)
        consumer = ShardClient(store)
        producer.publish("t", np.arange(2000), np.zeros((2000, 4)))
        consumer.pull_tables(["t"])
        read_before = sum(s.rows_read for s in store.shard_stats)
        producer.publish("t", np.array([7]), np.ones((1, 4)))
        consumer.pull_tables(["t"])
        read_after = sum(s.rows_read for s in store.shard_stats)
        assert read_after - read_before == 1

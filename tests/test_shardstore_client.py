"""Tests for the batched ShardClient sessions."""

import numpy as np
import pytest

from reference.replication import staged_rows
from repro.cluster.network import GBE_100, INFINIBAND_EDR
from repro.cluster.shardstore import (
    QuorumError,
    ShardClient,
    ShardedParameterStore,
)


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


class _Delay:
    """A fault plane reduced to what the client reads: ``delay_factor``."""

    def __init__(self, factor):
        self.delay_factor = factor


class TestTransferCost:
    @pytest.mark.parametrize("nbytes", [0, -8])
    def test_empty_transfer_is_free(self, store, nbytes):
        assert ShardClient(store).transfer_seconds(nbytes) == 0.0

    def test_latency_is_paid_once_per_transfer(self, store):
        client = ShardClient(store)
        whole = client.transfer_seconds(3000)
        assert whole == GBE_100.transfer_seconds(3000)
        assert whole < client.transfer_seconds(1000) + client.transfer_seconds(2000)

    def test_link_sets_the_cost(self, store):
        fast = ShardClient(store, link=INFINIBAND_EDR)
        slow = ShardClient(store)
        assert fast.transfer_seconds(4096) == INFINIBAND_EDR.transfer_seconds(4096)
        assert fast.transfer_seconds(4096) < slow.transfer_seconds(4096)

    def test_delay_fault_scales_flush_and_pull_reports(self, store):
        healthy = ShardClient(store)
        slowed = ShardClient(store, faults=_Delay(3.0))
        push = slowed.publish("t", np.arange(8), np.ones((8, 4)))
        _, pull = slowed.pull_tables(["t"])
        assert push.seconds == pytest.approx(3.0 * healthy.transfer_seconds(push.bytes))
        assert pull.seconds == pytest.approx(3.0 * healthy.transfer_seconds(pull.bytes))


class TestLaneAccounting:
    @pytest.mark.parametrize(
        "row_dtype, itemsize", [(np.float32, 4), (np.float64, 8)]
    )
    def test_reports_charge_the_store_lane(self, row_dtype, itemsize):
        lane = ShardedParameterStore(
            num_shards=4, row_bytes=None, row_dim=4, row_dtype=row_dtype
        )
        producer, consumer = ShardClient(lane), ShardClient(lane)
        push = producer.publish("t", np.arange(10), np.ones((10, 4)))
        _, pull = consumer.pull_tables(["t"])
        assert push.bytes == pull.bytes == 10 * 4 * itemsize

    def test_stage_downcasts_once_onto_a_float32_lane(self, store):
        client = ShardClient(store)
        client.stage("t", np.arange(3), np.ones((3, 4), dtype=np.float64))
        ((_, rows),) = client._staged["t"]
        assert rows.dtype == np.float32

    def test_unrepresentable_rows_raise_before_staging(self, store):
        client = ShardClient(store)
        with pytest.raises(ValueError):
            client.stage("t", np.arange(2), np.full((2, 4), 1e300))
        assert staged_rows(client) == 0
        assert client.flush().rows == 0
        assert store.version == 0

    def test_empty_stage_is_ignored(self, store):
        client = ShardClient(store)
        client.stage("t", np.array([], dtype=np.int64), np.zeros((0, 4)))
        assert client.flush().tables == []
        assert store.version == 0
        assert client.push_log == []

    def test_report_lists_tables_in_stage_order(self, store):
        client = ShardClient(store)
        for table in ("z", "a", "m"):
            client.stage(table, np.arange(2), np.ones((2, 4)))
        client.stage("z", np.arange(2, 4), np.ones((2, 4)))
        assert client.flush().tables == ["z", "a", "m"]


class TestPlainFlushFailure:
    @pytest.fixture
    def replicated(self):
        return ShardedParameterStore(
            num_shards=4, row_bytes=32, row_dim=4, replication=3
        )

    def test_quorum_refusal_propagates_and_keeps_the_stage(self, replicated):
        client = ShardClient(replicated)
        replicated.kill_shard(0)
        replicated.kill_shard(1)
        client.stage("t", np.arange(40), np.ones((40, 4)))
        with pytest.raises(QuorumError):
            client.flush()
        assert replicated.version == 0
        assert client.push_log == []
        assert staged_rows(client) == 40

    def test_refused_flush_lands_once_after_revive(self, replicated):
        client = ShardClient(replicated)
        replicated.kill_shard(0)
        replicated.kill_shard(1)
        client.stage("t", np.arange(40), np.ones((40, 4)))
        with pytest.raises(QuorumError):
            client.flush()
        replicated.revive_shard(0)
        replicated.revive_shard(1)
        report = client.flush()
        assert (report.version, report.rows) == (1, 40)
        assert (report.attempts, report.retries) == (1, 0)
        assert staged_rows(client) == 0
        assert len(client.push_log) == 1


class TestSyncPoint:
    def test_publish_only_client_never_registers(self, store):
        client = ShardClient(store)
        client.publish("t", np.arange(4), np.ones((4, 4)))
        client.mark_synced()
        assert client._sync_token is None
        assert store.oldest_sync_point() is None

    def test_first_pull_registers_and_later_pulls_move_it(self, store):
        producer, consumer = ShardClient(store), ShardClient(store)
        producer.publish("t", np.arange(4), np.ones((4, 4)))
        consumer.pull_tables(["t"])
        assert store.oldest_sync_point() == 1
        producer.publish("t", np.arange(4), np.ones((4, 4)))
        producer.publish("t", np.arange(4), np.ones((4, 4)))
        assert store.oldest_sync_point() == 1
        _, report = consumer.pull_tables(["t"])
        assert report.version == consumer.synced_version == 3
        assert store.oldest_sync_point() == 3

    def test_mark_synced_moves_a_registered_point(self, store):
        producer, consumer = ShardClient(store), ShardClient(store)
        producer.publish("t", np.arange(4), np.ones((4, 4)))
        consumer.pull_tables(["t"])
        producer.publish("t", np.arange(4), np.ones((4, 4)))
        consumer.mark_synced()
        assert store.oldest_sync_point() == 2

    def test_lagging_puller_still_reads_its_gap_after_compaction(self, store):
        producer = ShardClient(store)
        fast, slow = ShardClient(store), ShardClient(store)
        producer.publish("t", np.arange(6), np.zeros((6, 4)))
        fast.pull_tables(["t"])
        slow.pull_tables(["t"])
        producer.publish("t", np.arange(3), np.ones((3, 4)))
        fast.pull_tables(["t"])
        producer.publish("t", np.arange(3, 6), np.full((3, 4), 2.0))
        fast.pull_tables(["t"])
        store.compact()
        deltas, report = slow.pull_tables(["t"])
        assert deltas["t"][0].tolist() == list(range(6))
        assert deltas["t"][1][:3].tolist() == [[1.0] * 4] * 3
        assert deltas["t"][1][3:].tolist() == [[2.0] * 4] * 3
        assert report.version == 3


class TestPullReport:
    def test_empty_pull_is_logged_and_free(self, store):
        client = ShardClient(store)
        _, report = client.pull_tables(["t"])
        assert (report.rows, report.bytes, report.seconds) == (0, 0, 0.0)
        assert report.outcome == "ok" and not report.degraded
        assert client.pull_log == [report]

    def test_unknown_table_pulls_empty(self, store):
        producer, consumer = ShardClient(store), ShardClient(store)
        producer.publish("a", np.arange(4), np.ones((4, 4)))
        deltas, report = consumer.pull_tables(["a", "missing"])
        assert deltas["missing"][0].size == 0
        assert report.rows == 4
        assert report.tables == ["a", "missing"]

    def test_pull_returns_only_rows_past_the_sync_point(self, store):
        producer, consumer = ShardClient(store), ShardClient(store)
        producer.publish("t", np.arange(6), np.zeros((6, 4)))
        consumer.pull_tables(["t"])
        producer.publish("t", np.arange(3, 9), np.ones((6, 4)))
        deltas, report = consumer.pull_tables(["t"])
        ids, rows = deltas["t"]
        assert ids.tolist() == list(range(3, 9))
        assert np.all(rows == 1.0)
        assert report.rows == 6

    def test_duplicate_ids_in_one_window_last_write_wins(self, store):
        producer, consumer = ShardClient(store), ShardClient(store)
        producer.stage("t", np.array([5, 2]), np.zeros((2, 4)))
        producer.stage("t", np.array([5]), np.full((1, 4), 7.0))
        producer.flush()
        deltas, _ = consumer.pull_tables(["t"])
        ids, rows = deltas["t"]
        assert ids.tolist() == [2, 5]
        assert rows[1].tolist() == [7.0] * 4

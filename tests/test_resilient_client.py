"""Integration tests for the resilient read/sync path of ``ShardClient``.

Exercises the whole client plane against a live store: exactness parity
with the legacy pull path, hedged reads under a slow replica, breaker
lifecycle across pulls, degraded serving with its staleness bound under
full coverage loss, retry-until-heal flows driven by a fault plane, and
the idempotent flush-retry guarantee (no acked publish lost or
double-applied), and the same coverage rule on a client without a policy.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.faults import FaultEvent, FaultPlane, FaultSchedule
from repro.cluster.resilience import (
    DegradedReadError,
    HedgedRead,
    ResiliencePolicy,
    RetryPolicy,
)
from repro.cluster.shardstore import (
    QuorumError,
    ShardClient,
    ShardedParameterStore,
)

DIM = 4


def make_store(num_shards=4, replication=3, dim=DIM):
    return ShardedParameterStore(
        num_shards=num_shards,
        row_bytes=dim * 8,
        row_dim=dim,
        replication=replication,
    )


def as_map(ids: np.ndarray, rows: np.ndarray) -> dict[int, tuple]:
    return {int(i): tuple(r) for i, r in zip(ids, rows)}


class TestExactnessParity:
    def test_healthy_pull_matches_legacy_path(self):
        store = make_store(num_shards=8, replication=2)
        legacy = ShardClient(store)
        resilient = ShardClient(store, resilience=ResiliencePolicy())
        rng = np.random.default_rng(5)
        store.publish_batch("emb", np.arange(100), rng.normal(size=(100, DIM)))
        store.publish_batch(
            "emb", np.arange(40, 60), rng.normal(size=(20, DIM))
        )
        got_legacy, rep_legacy = legacy.pull_tables(["emb"])
        got_res, rep_res = resilient.pull_tables(["emb"])
        assert as_map(*got_res["emb"]) == as_map(*got_legacy["emb"])
        assert rep_res.rows == rep_legacy.rows == 100
        assert rep_res.outcome == "ok" and not rep_res.degraded
        assert resilient.synced_version == legacy.synced_version == 2

    def test_row_filter_parity(self):
        store = make_store(num_shards=8, replication=2)
        legacy = ShardClient(store)
        resilient = ShardClient(store, resilience=ResiliencePolicy())
        store.publish_batch("emb", np.arange(50), np.ones((50, DIM)))
        keep = np.array([3, 7, 11, 48])
        got_legacy, _ = legacy.pull_tables(["emb"], row_filter=keep)
        got_res, _ = resilient.pull_tables(["emb"], row_filter=keep)
        assert as_map(*got_res["emb"]) == as_map(*got_legacy["emb"])
        assert got_res["emb"][0].size == keep.size

    def test_table_rewidened_between_pulls(self):
        """Regression: rank growth re-widens ``lora_a/*``; the second
        resilient pull raised ``ValueError`` merging 8-wide rows into the
        4-wide degraded cache."""
        store = ShardedParameterStore(num_shards=4, row_bytes=None, replication=3)
        client = ShardClient(store, resilience=ResiliencePolicy())
        store.publish_batch("lora_a/0", np.arange(10), np.ones((10, 4)))
        client.pull_tables(["lora_a/0"])
        store.publish_batch("lora_a/0", np.arange(5), np.full((5, 8), 2.0))
        deltas, report = client.pull_tables(["lora_a/0"])
        assert not report.degraded and deltas["lora_a/0"][1].shape == (5, 8)
        stale = client.degraded_read("lora_a/0")
        ids, rows, _ = store.pull_delta("lora_a/0", 0)
        np.testing.assert_array_equal(stale.ids, ids)
        np.testing.assert_array_equal(stale.rows, rows)

    def test_suspect_primary_range_is_read_reconciled(self):
        """A live primary that dropped a publish cannot vouch for its
        range: the resilient pull reads exactly that range R-way, and the
        split between the two reads loses and duplicates nothing."""
        store = make_store(num_shards=6, replication=3)
        legacy = ShardClient(store)
        resilient = ShardClient(store, resilience=ResiliencePolicy())
        rng = np.random.default_rng(3)
        store.publish_batch("emb", np.arange(200), rng.normal(size=(200, DIM)))
        store.arm_publish_drop(2)
        store.publish_batch("emb", np.arange(50, 150), rng.normal(size=(100, DIM)))
        assert store.suspect_shard_ids(0) == [2]
        got_res, report = resilient.pull_tables(["emb"])
        got_legacy, _ = legacy.pull_tables(["emb"])
        assert not report.degraded
        assert got_res["emb"][0].tolist() == list(range(200))
        assert as_map(*got_res["emb"]) == as_map(*got_legacy["emb"])

    def test_one_dead_replica_stays_exact(self):
        store = make_store(num_shards=4, replication=3)
        client = ShardClient(store, resilience=ResiliencePolicy())
        rng = np.random.default_rng(11)
        values = rng.normal(size=(64, DIM)).astype(np.float32)  # the store's lane
        store.publish_batch("emb", np.arange(64), values)
        store.kill_shard(store.shard_ids[0])
        deltas, report = client.pull_tables(["emb"])
        assert not report.degraded
        assert report.rows == 64
        got = as_map(*deltas["emb"])
        want = as_map(np.arange(64), values)
        assert got == want
        assert client.synced_version == store.version


class TestHedgedReads:
    def _run(self, hedge=None, *, slow_factor=20.0, trials=16, warmup=12):
        """Publish-then-pull loop with one replica turning slow mid-run."""
        rng = np.random.default_rng(23)
        store = make_store(num_shards=8, replication=3)
        store.publish_batch(
            "emb", np.arange(4096), rng.normal(size=(4096, DIM))
        )
        victim = int(store.shard_ids[0])
        plane = FaultPlane(
            store,
            FaultSchedule(
                [FaultEvent(1.0, "slow_node", shard_id=victim, factor=slow_factor)]
            ),
        )
        policy = (
            ResiliencePolicy()
            if hedge is None
            else ResiliencePolicy(hedge=hedge)
        )
        client = ShardClient(store, faults=plane, resilience=policy)
        healthy, slowed = [], []
        hedges = 0
        for trial in range(warmup + trials):
            if trial == warmup:
                plane.advance_to(1.0)
            hot = rng.choice(4096, size=64, replace=False)
            store.publish_batch("emb", hot, rng.normal(size=(64, DIM)))
            _, report = client.pull_tables(["emb"])
            assert not report.degraded
            if trial >= warmup:
                slowed.append(report.seconds)
                hedges += report.hedges
            else:
                healthy.append(report.seconds)
        return max(healthy[1:]), max(slowed), hedges

    def test_hedging_bounds_the_slow_replica_tail(self):
        baseline, hedged, hedges = self._run()
        assert hedges > 0
        # hedge fires at ~p95 of healthy latency, backup costs ~one more
        # healthy RPC: the tail holds at 2.0x (the 3x hedged-p99 claim;
        # modelled, so it replays bit-for-bit) where the straggler alone
        # imposes 20x.
        assert hedged <= 3.0 * baseline
        _, unhedged, no_hedges = self._run(hedge=HedgedRead(min_delay_s=1e9))
        assert no_hedges == 0
        assert unhedged >= 10.0 * baseline
        assert hedged < unhedged / 2.0

    def test_hedged_pulls_stay_exact(self):
        rng = np.random.default_rng(3)
        store = make_store(num_shards=8, replication=3)
        store.publish_batch(
            "emb", np.arange(512), rng.normal(size=(512, DIM))
        )
        victim = int(store.shard_ids[0])
        plane = FaultPlane(
            store,
            FaultSchedule(
                [FaultEvent(0.0, "slow_node", shard_id=victim, factor=30.0)]
            ),
        )
        plane.advance_to(0.0)
        client = ShardClient(store, faults=plane, resilience=ResiliencePolicy())
        client.pull_tables(["emb"])  # warm the hedge quantile
        values = rng.normal(size=(512, DIM)).astype(np.float32)  # the store's lane
        store.publish_batch("emb", np.arange(512), values)
        deltas, report = client.pull_tables(["emb"])
        assert report.hedges > 0 and report.outcome == "hedged"
        assert as_map(*deltas["emb"]) == as_map(np.arange(512), values)


class TestBreakerLifecycle:
    def _partition_scenario(self):
        store = make_store(num_shards=4, replication=3)
        store.publish_batch("emb", np.arange(32), np.ones((32, DIM)))
        victim = int(store.shard_ids[0])
        plane = FaultPlane(
            store,
            FaultSchedule(
                [FaultEvent(0.0, "partition", shard_id=victim, duration_s=1e4)]
            ),
        )
        plane.advance_to(0.0)
        policy = ResiliencePolicy()
        client = ShardClient(store, faults=plane, resilience=policy)
        for _ in range(4):
            _, report = client.pull_tables(["emb"])
            assert not report.degraded  # failover keeps the pull exact
        return victim, policy

    def test_repeated_partition_failures_trip_the_breaker(self):
        victim, policy = self._partition_scenario()
        now = policy.clock.now()
        assert policy.breaker_for(victim).state(now) == "open"
        assert policy.open_breakers(now) == 1
        kinds = [
            (sid, frm, to)
            for sid, _, frm, to in policy.breaker_transitions()
        ]
        assert (victim, "closed", "open") in kinds

    def test_breaker_transition_log_replays_identically(self):
        _, a = self._partition_scenario()
        _, b = self._partition_scenario()
        assert a.breaker_transitions() == b.breaker_transitions()
        assert a.breaker_transitions()  # non-trivial log


class TestDegradedServing:
    def _coverage_loss(self, degraded=True):
        """Doctest scenario: sync v1, lose coverage, publish v2 unseen."""
        store = make_store(num_shards=4, replication=3)
        policy = (
            ResiliencePolicy(deadline_s=2.0)
            if degraded
            else ResiliencePolicy(deadline_s=2.0, degraded=None)
        )
        client = ShardClient(store, resilience=policy)
        store.publish_batch("emb", np.arange(6), np.full((6, DIM), 1.0))
        _, report = client.pull_tables(["emb"])
        assert report.outcome == "ok" and client.synced_version == 1
        store.kill_shard(store.shard_ids[0])
        store.publish_batch("emb", np.arange(3), np.full((3, DIM), 2.0))
        for sid in store.shard_ids[1:3]:
            store.kill_shard(sid)
        return store, client

    def test_full_coverage_loss_degrades_without_advancing_sync(self):
        store, client = self._coverage_loss()
        deltas, report = client.pull_tables(["emb"])
        assert report.degraded and report.outcome == "degraded"
        assert deltas["emb"][0].size == 0
        assert client.synced_version == 1  # the gap is NOT skipped
        assert report.seconds == client.resilience.deadline_s

    def test_degraded_read_bounded_by_last_sync(self):
        store, client = self._coverage_loss()
        client.pull_tables(["emb"])
        stale = client.degraded_read("emb")
        assert stale.degraded
        assert stale.as_of_version == 1 and stale.current_version == 2
        assert stale.staleness_versions == 1
        # staleness bound: rows are exactly the v1 payloads the client
        # last synced — never the unseen v2 writes, never older either
        assert stale.ids.tolist() == list(range(6))
        assert float(stale.rows.min()) == float(stale.rows.max()) == 1.0
        assert stale.row_versions.max() <= stale.as_of_version
        assert stale.row_staleness.tolist() == [1] * 6

    def test_unseen_table_empty_has_table_width_and_lane(self):
        """Regression: a table the cache never held served ``(0, 1)``
        float64 rows instead of the store's own empty."""
        store = ShardedParameterStore(
            num_shards=4, row_dim=8, replication=3, row_dtype=np.float32
        )
        client = ShardClient(store, resilience=ResiliencePolicy())
        store.publish_batch("emb", np.arange(4), np.ones((4, 8), np.float32))
        client.pull_tables(["emb"])
        stale = client.degraded_read("ghost")
        assert stale.degraded and stale.ids.size == 0
        assert stale.rows.shape == (0, 8) and stale.rows.dtype == np.float32
        assert stale.row_versions.dtype == np.int64
        assert stale.as_of_version == 1 and stale.current_version == 1

    def test_gap_is_repulled_after_repair(self):
        store, client = self._coverage_loss()
        client.pull_tables(["emb"])  # degraded
        for sid in list(store.down_shard_ids):
            store.revive_shard(sid)
        store.repair()
        deltas, report = client.pull_tables(["emb"])
        assert not report.degraded
        assert client.synced_version == 2
        ids, rows = deltas["emb"]
        assert ids.tolist() == [0, 1, 2]  # the publish missed while down
        assert float(rows.min()) == 2.0

    def test_no_cache_raises_typed_error(self):
        store, client = self._coverage_loss(degraded=False)
        with pytest.raises(DegradedReadError) as exc:
            client.pull_tables(["emb"])
        assert exc.value.synced_version == 1
        assert exc.value.current_version == 2
        assert exc.value.staleness_versions == 1
        assert client.synced_version == 1


class TestRetryHeal:
    def test_pull_retries_until_fault_plane_heals(self):
        store = make_store(num_shards=4, replication=3)
        client_policy = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=4, base_backoff_s=0.05)
        )
        client = ShardClient(store, resilience=client_policy)
        store.publish_batch("emb", np.arange(16), np.ones((16, DIM)))
        client.pull_tables(["emb"])
        events = [FaultEvent(0.0, "kill", sid) for sid in store.shard_ids]
        events += [FaultEvent(0.01, "revive", sid) for sid in store.shard_ids]
        plane = FaultPlane(store, FaultSchedule(events))
        client.faults = plane
        client_policy.on_wait = plane.advance_to
        plane.advance_to(0.0)  # everything down: no backups anywhere
        assert len(store.down_shard_ids) == 4
        values = np.full((16, DIM), 7.0)
        # publish cannot land while all shards are down, so stage the
        # next window's state on the store directly after the heal fires:
        # here we only exercise the *pull* retry loop.
        deltas, report = client.pull_tables(["emb"])
        assert report.retries >= 1
        assert not report.degraded and report.outcome == "ok"
        assert store.down_shard_ids == []  # on_wait drove the heal
        del values

    def test_flush_retry_is_idempotent(self):
        store = make_store(num_shards=4, replication=3)
        down = [int(s) for s in store.shard_ids[:2]]
        plane = FaultPlane(
            store,
            FaultSchedule(
                [FaultEvent(0.01, "revive", sid) for sid in down]
            ),
        )
        policy = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=4, base_backoff_s=0.05),
            on_wait=plane.advance_to,
        )
        client = ShardClient(store, resilience=policy)
        store.publish_batch("emb", np.arange(8), np.ones((8, DIM)))
        version_before = store.version
        for sid in down:
            store.kill_shard(sid)
        client.stage("emb", np.arange(8), np.full((8, DIM), 3.0))
        report = client.flush()
        # quorum refusals happen before any version bump, so however many
        # attempts the flush took, exactly ONE publish landed
        assert report.retries >= 1
        assert store.version == version_before + 1
        assert client.staged_rows == 0
        found, rows = store.pull_rows("emb", np.arange(8))
        assert bool(found.all()) and float(rows.min()) == 3.0

    def test_flush_exhaustion_raises_and_preserves_staged_rows(self):
        store = make_store(num_shards=4, replication=3)
        policy = ResiliencePolicy(retry=RetryPolicy(max_attempts=2))
        client = ShardClient(store, resilience=policy)
        store.publish_batch("emb", np.arange(8), np.ones((8, DIM)))
        for sid in store.shard_ids[:2]:
            store.kill_shard(sid)
        client.stage("emb", np.arange(8), np.full((8, DIM), 9.0))
        with pytest.raises(QuorumError):
            client.flush()
        assert client.staged_rows == 8  # nothing lost
        assert store.version == 1  # nothing half-applied
        for sid in list(store.down_shard_ids):
            store.revive_shard(sid)
        report = client.flush()  # same staged batch, now it lands
        assert report.rows == 8 and store.version == 2
        _, rows = store.pull_rows("emb", np.arange(8))
        assert float(rows.min()) == 9.0


class TestPlainPullCoverage:
    """A client without a policy decides coverage from the store state:
    when the replicas run out it raises instead of returning a short
    delta, and keeps the sync point so nothing acked is ever skipped."""

    def _exhausted(self):
        """R=3 over 4 shards: sync at v1, re-publish all 64 rows at v2,
        then lose three shards — the live one holds 59 of the 64 rows."""
        store = make_store(num_shards=4, replication=3)
        client = ShardClient(store)
        store.publish_batch("emb", np.arange(64), np.ones((64, DIM)))
        client.pull_tables(["emb"])
        store.publish_batch("emb", np.arange(64), np.full((64, DIM), 2.0))
        for sid in store.shard_ids[:3]:
            store.kill_shard(sid)
        return store, client

    def test_exhausted_pull_raises_and_keeps_own_sync_point(self):
        store, client = self._exhausted()
        with pytest.raises(DegradedReadError) as exc:
            client.pull_tables(["emb"])
        assert exc.value.reason == "coverage"
        assert (exc.value.synced_version, exc.value.current_version) == (1, 2)
        assert client.synced_version == 1
        assert store.oldest_sync_point() == 1  # the registered pin stays too
        assert client.pull_log[-1].degraded

    def test_every_acked_row_arrives_after_repair(self):
        store, client = self._exhausted()
        with pytest.raises(DegradedReadError):
            client.pull_tables(["emb"])
        for sid in list(store.down_shard_ids):
            store.revive_shard(sid)
        store.repair()
        deltas, report = client.pull_tables(["emb"])
        assert not report.degraded and report.rows == 64
        ids, rows = deltas["emb"]
        assert ids.tolist() == list(range(64))
        assert float(rows.min()) == float(rows.max()) == 2.0
        assert client.synced_version == store.oldest_sync_point() == 2

    def test_one_dead_replica_reads_its_range_reconciled(self):
        store = make_store(num_shards=4, replication=3)
        client = ShardClient(store)
        values = np.random.default_rng(11).normal(size=(64, DIM)).astype(np.float32)
        store.publish_batch("emb", np.arange(64), values)
        store.kill_shard(store.shard_ids[0])
        deltas, report = client.pull_tables(["emb"])
        assert not report.degraded and report.rows == 64
        assert as_map(*deltas["emb"]) == as_map(np.arange(64), values)
        # the cost model is still the rows moved, not a modelled wave
        assert report.seconds == client.transfer_seconds(report.bytes)

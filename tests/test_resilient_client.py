"""Integration tests for the resilient read/sync path of ``ShardClient``.

Exercises the whole client plane against a live store: exactness parity
with the legacy pull path, hedged reads under a slow replica, breaker
lifecycle across pulls, degraded serving with its staleness bound under
full coverage loss, the flush-retry guarantee (a refused attempt retried
in the loop lands exactly once; an exhausted flush keeps its staged rows
and lands exactly once after repair), the same coverage rule on a
client without a policy, and a faulted scenario that replays
byte-identically under two hash seeds.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

from reference.replication import pull_rows, staged_rows
from repro.cluster.faults import FaultEvent, FaultPlane, FaultSchedule
from repro.cluster.resilience import DegradedReadError, ResiliencePolicy
from repro.cluster.resilience.policy import DEADLINE_S, MAX_ATTEMPTS, backoff_s
from repro.cluster.shardstore import (
    QuorumError,
    ShardClient,
    ShardedParameterStore,
)

DIM = 4
TESTS = os.path.dirname(os.path.abspath(__file__))


def make_store(num_shards=4, replication=3, dim=DIM):
    return ShardedParameterStore(
        num_shards=num_shards,
        row_bytes=dim * 8,
        row_dim=dim,
        replication=replication,
    )


def breaker_transitions(policy) -> list[tuple[int, float, str, str]]:
    """Every breaker transition fleet-wide as ``(shard, at_s, from, to)``,
    sorted by ``(at_s, shard)``: a process-independent replay order."""
    rows = [
        (sid, at, frm, to)
        for sid, brk in policy._breakers.items()
        for (at, frm, to) in brk.transitions
    ]
    return sorted(rows, key=lambda r: (r[1], r[0]))


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

    def test_table_rewidened_between_pulls(self):
        """Regression: rank growth re-widens ``lora_a/*`` between two
        resilient pulls; the second one is exact at the new width and
        moves the sync point."""
        store = ShardedParameterStore(num_shards=4, row_bytes=None, replication=3)
        client = ShardClient(store, resilience=ResiliencePolicy())
        store.publish_batch("lora_a/0", np.arange(10), np.ones((10, 4)))
        _, report = client.pull_tables(["lora_a/0"])
        assert not report.degraded and client.synced_version == 1
        store.publish_batch("lora_a/0", np.arange(5), np.full((5, 8), 2.0))
        deltas, report = client.pull_tables(["lora_a/0"])
        assert not report.degraded and deltas["lora_a/0"][1].shape == (5, 8)
        assert report.version == client.synced_version == store.version == 2
        ids, rows, _ = store.pull_delta("lora_a/0", 1)
        np.testing.assert_array_equal(deltas["lora_a/0"][0], ids)
        np.testing.assert_array_equal(deltas["lora_a/0"][1], rows)

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


class TestHedging:
    def _run(self, *, slow_factor=20.0, trials=16, warmup=12):
        """Publish-then-pull loop with one replica turning slow mid-run.

        Returns the healthy tail, the slowed tail, the slowest modelled
        primary RPC of the straggler itself (what an unhedged wave waits
        out) and the hedge count."""
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
        client = ShardClient(store, faults=plane, resilience=ResiliencePolicy())
        healthy, slowed, straggler = [], [], []
        hedges = 0
        for trial in range(warmup + trials):
            if trial == warmup:
                plane.advance_to(1.0)
            hot = rng.choice(4096, size=64, replace=False)
            store.publish_batch("emb", hot, rng.normal(size=(64, DIM)))
            nbytes = client._shard_delta_bytes(["emb"], client.synced_version)[victim]
            _, report = client.pull_tables(["emb"])
            assert not report.degraded
            if trial >= warmup:
                slowed.append(report.seconds)
                straggler.append(client._modelled_rpc_seconds(nbytes, victim))
                hedges += report.hedges
            else:
                healthy.append(report.seconds)
        return max(healthy[1:]), max(slowed), max(straggler), hedges

    def test_hedging_bounds_the_slow_replica_tail(self):
        baseline, hedged, straggler, hedges = self._run()
        assert hedges > 0
        # hedge fires at ~p95 of healthy latency, backup costs ~one more
        # healthy RPC: the tail holds at 2.0x (the 3x hedged-p99 claim;
        # modelled, so it replays bit-for-bit) where the straggler's own
        # RPC, which an unhedged wave would wait out, costs 20x.
        assert hedged <= 3.0 * baseline
        assert straggler >= 10.0 * baseline
        assert hedged < straggler / 2.0

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
    def _dead_primary_scenario(self):
        store = make_store(num_shards=4, replication=3)
        store.publish_batch("emb", np.arange(32), np.ones((32, DIM)))
        victim = int(store.shard_ids[0])
        plane = FaultPlane(
            store, FaultSchedule([FaultEvent(0.0, "kill", shard_id=victim)])
        )
        plane.advance_to(0.0)
        policy = ResiliencePolicy()
        client = ShardClient(store, faults=plane, resilience=policy)
        for _ in range(4):
            _, report = client.pull_tables(["emb"])
            assert not report.degraded  # failover keeps the pull exact
        return victim, policy

    def test_repeated_dead_primary_failures_trip_the_breaker(self):
        victim, policy = self._dead_primary_scenario()
        now = policy.clock.now()
        assert policy.breaker_for(victim).state(now) == "open"
        assert [b.state(now) for b in policy._breakers.values()].count("open") == 1
        kinds = [
            (sid, frm, to)
            for sid, _, frm, to in breaker_transitions(policy)
        ]
        assert (victim, "closed", "open") in kinds

    def test_breaker_transition_log_replays_identically(self):
        _, a = self._dead_primary_scenario()
        _, b = self._dead_primary_scenario()
        assert breaker_transitions(a) == breaker_transitions(b)
        assert breaker_transitions(a)  # non-trivial log


class TestDegradedServing:
    def _coverage_loss(self, resilient=True):
        """Doctest scenario: sync v1, lose coverage, publish v2 unseen."""
        store = make_store(num_shards=4, replication=3)
        policy = ResiliencePolicy() if resilient else None
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
        assert report.seconds == DEADLINE_S

    def test_degraded_pull_is_bounded_by_the_sync_point(self):
        """The staleness bound lives at the sync point: a degraded pull
        reports it unmoved, registered and behind by exactly the unseen
        publishes, and the returned rows are empty at the table's width."""
        store, client = self._coverage_loss()
        deltas, report = client.pull_tables(["emb"])
        assert report.degraded and report.version == client.synced_version == 1
        assert client.staleness_versions() == store.version - 1 == 1
        assert store.oldest_sync_point() == 1  # the registered pin stays
        assert deltas["emb"][0].shape == (0,)
        assert deltas["emb"][1].shape == (0, DIM)

    def test_repeated_degraded_pulls_change_nothing(self):
        """Each degraded pull is logged, and none moves the sync point or
        the staleness it reports."""
        store, client = self._coverage_loss()
        for _ in range(3):
            deltas, report = client.pull_tables(["emb"])
            assert report.degraded and deltas["emb"][0].size == 0
            assert client.synced_version == 1
            assert client.staleness_versions() == 1
        assert [r.outcome for r in client.pull_log] == ["ok"] + ["degraded"] * 3

    def test_degraded_rows_take_each_tables_width_and_lane(self):
        """The empty rows come from the store, so a table this client never
        pulled (or that was never published) still gets its own width and
        the store's row dtype."""
        store = make_store(num_shards=4, replication=3)
        client = ShardClient(store, resilience=ResiliencePolicy())
        store.publish_batch("emb", np.arange(6), np.ones((6, DIM)))
        client.pull_tables(["emb"])
        store.publish_batch("wide", np.arange(6), np.ones((6, 2 * DIM)))
        for sid in store.shard_ids[:3]:
            store.kill_shard(sid)
        deltas, report = client.pull_tables(["emb", "wide", "ghost"])
        assert report.degraded
        for table, width in (("emb", DIM), ("wide", 2 * DIM), ("ghost", DIM)):
            ids, rows = deltas[table]
            assert ids.shape == (0,) and ids.dtype == np.int64
            assert rows.shape == (0, width)
            assert rows.dtype == store.row_dtype

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

    def test_plain_client_raises_typed_error(self):
        store, client = self._coverage_loss(resilient=False)
        with pytest.raises(DegradedReadError) as exc:
            client.pull_tables(["emb"])
        assert exc.value.synced_version == 1
        assert exc.value.current_version == 2
        assert exc.value.staleness_versions == 1
        assert client.synced_version == 1


class TestRetryHeal:
    def test_flush_retry_is_idempotent(self):
        store = make_store(num_shards=4, replication=3)
        store.publish_batch("emb", np.arange(8), np.ones((8, DIM)))
        version_before = store.version
        dead, dropping = (int(s) for s in store.shard_ids[:2])
        store.kill_shard(dead)
        # a lost message on a co-owner: rows on both shards keep one of
        # three replicas, below the quorum of 2, so the first attempt is
        # refused; the refusal spends the armed drop and the retry lands
        store.arm_publish_drop(dropping)
        policy = ResiliencePolicy()
        client = ShardClient(store, resilience=policy)
        client.stage("emb", np.arange(8), np.full((8, DIM), 3.0))
        report = client.flush()
        # quorum refusals happen before any version bump, so however many
        # attempts the flush took, exactly ONE publish landed
        assert report.retries == 1
        assert policy.clock.now() == pytest.approx(backoff_s(1, key=0))
        assert store.version == version_before + 1
        assert staged_rows(client) == 0
        found, rows = pull_rows(store, "emb", np.arange(8))
        assert bool(found.all()) and float(rows.min()) == float(rows.max()) == 3.0

    def test_flush_exhaustion_raises_and_preserves_staged_rows(self):
        store = make_store(num_shards=4, replication=3)
        policy = ResiliencePolicy()
        client = ShardClient(store, resilience=policy)
        store.publish_batch("emb", np.arange(8), np.ones((8, DIM)))
        for sid in store.shard_ids[:2]:
            store.kill_shard(sid)
        client.stage("emb", np.arange(8), np.full((8, DIM), 9.0))
        with pytest.raises(QuorumError):
            client.flush()
        # a backoff between attempts, on the policy's clock
        waited = sum(backoff_s(a, key=0) for a in range(1, MAX_ATTEMPTS))
        assert policy.clock.now() == pytest.approx(waited)
        assert staged_rows(client) == 8  # nothing lost
        assert store.version == 1  # nothing half-applied
        for sid in list(store.down_shard_ids):
            store.revive_shard(sid)
        report = client.flush()  # same staged batch, now it lands
        assert report.rows == 8 and store.version == 2
        _, rows = pull_rows(store, "emb", np.arange(8))
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


def faulted_scenario() -> str:
    """A resilient client under faults, as one process-independent text.

    Shard 0 turns slow, shard 1 is killed and later revived, and while
    shard 1 is down one flush is refused once (a lost message on shard 2)
    and retried after a backoff.  The text holds the ``repr`` of both
    transfer logs, the policy clock and a digest of every pulled row.
    """
    rng = np.random.default_rng(11)
    store = make_store(num_shards=4, replication=3)
    store.publish_batch("emb", np.arange(256), rng.normal(size=(256, DIM)))
    slow, dead, dropping = (int(s) for s in store.shard_ids[:3])
    plane = FaultPlane(
        store,
        FaultSchedule(
            [
                FaultEvent(0.0, "slow_node", shard_id=slow, factor=20.0),
                FaultEvent(2.0, "kill", shard_id=dead),
                FaultEvent(4.0, "revive", shard_id=dead),
            ]
        ),
    )
    policy = ResiliencePolicy()
    client = ShardClient(store, faults=plane, resilience=policy)
    digest = hashlib.sha256()
    for step in range(6):
        plane.advance_to(float(step))
        hot = rng.choice(256, size=32, replace=False)
        if step == 3:
            store.arm_publish_drop(dropping)
            client.stage("emb", hot, rng.normal(size=(32, DIM)))
            client.flush()
        else:
            store.publish_batch("emb", hot, rng.normal(size=(32, DIM)))
        deltas, _ = client.pull_tables(["emb"])
        ids, rows = deltas["emb"]
        digest.update(ids.tobytes())
        digest.update(rows.tobytes())
    return "\n".join(
        [
            repr(client.push_log),
            repr(client.pull_log),
            repr(policy.clock.now()),
            digest.hexdigest(),
        ]
    )


class TestCrossProcessDeterminism:
    def test_faulted_scenario_is_identical_under_two_hash_seeds(self):
        outs = []
        for hashseed in ("0", "42"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hashseed
            env["PYTHONPATH"] = os.pathsep.join(
                [os.path.join(os.path.dirname(TESTS), "src"), TESTS]
            )
            proc = subprocess.run(
                [
                    sys.executable,
                    "-c",
                    "import test_resilient_client as t; print(t.faulted_scenario())",
                ],
                capture_output=True,
                text=True,
                env=env,
                timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
        # the scenario ran what it names: a retried flush, hedged pulls and
        # no degraded one
        assert "retries=1" in outs[0]
        assert "outcome='hedged'" in outs[0]
        assert "degraded=True" not in outs[0]

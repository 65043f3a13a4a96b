"""Replication, quorum, repair, and chaos tests for the parameter plane.

The acceptance bar (ISSUE 9): with ``replication=3``, any fault schedule
that kills fewer than a quorum of each row's replicas mid-window loses
zero acknowledged rows; replicas converge byte-identically after repair;
and watermark-guarded compaction never drops a log slice a registered
client still needs.

Chaos seeds are fixed for reproducibility; CI's ``faults`` job extends
the sweep via the ``REPRO_CHAOS_SEED`` environment variable.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from faultlib import (
    assert_converged,
    assert_no_acked_loss,
    quiesce,
    run_chaos_schedule,
)
from repro.cluster.consistency import check_replica_convergence
from repro.cluster.faults import FaultSchedule
from repro.cluster.shardstore import (
    QuorumError,
    ShardPlacement,
    ShardedParameterStore,
)


def _store(replication=3, num_shards=8, dim=4):
    return ShardedParameterStore(
        num_shards=num_shards,
        row_bytes=None,
        row_dim=dim,
        replication=replication,
    )


def _fill(store, n=2000, seed=0, table="emb", id_space=10_000):
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, id_space, size=n)
    rows = rng.normal(size=(ids.size, store.row_dim))
    version = store.publish_batch(table, ids, rows)
    return ids, rows, version


def _subprocess_output(snippet: str, hash_seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    return subprocess.run(
        [sys.executable, "-c", snippet],
        capture_output=True, text=True, env=env, check=True,
    ).stdout.strip()


class TestReplicaOwners:
    def test_shape_distinct_and_primary_matches_shard_of(self):
        p = ShardPlacement(list(range(8)))
        ids = np.arange(3000)
        owners = p.replica_owners("t", ids, 3)
        assert owners.shape == (ids.size, 3)
        assert owners.dtype == np.int64
        np.testing.assert_array_equal(owners[:, 0], p.shard_of("t", ids))
        # all three owners distinct per row
        assert (owners[:, 0] != owners[:, 1]).all()
        assert (owners[:, 0] != owners[:, 2]).all()
        assert (owners[:, 1] != owners[:, 2]).all()

    def test_prefix_stability_across_r(self):
        """The r-replica set is a prefix of the (r+1)-replica set."""
        p = ShardPlacement(list(range(8)))
        ids = np.arange(2000)
        three = p.replica_owners("t", ids, 3)
        np.testing.assert_array_equal(
            p.replica_owners("t", ids, 1), three[:, :1]
        )
        np.testing.assert_array_equal(
            p.replica_owners("t", ids, 2), three[:, :2]
        )

    def test_invalid_r_raises(self):
        p = ShardPlacement(list(range(4)))
        with pytest.raises(ValueError):
            p.replica_owners("t", np.arange(5), 0)
        with pytest.raises(ValueError):
            p.replica_owners("t", np.arange(5), 5)

    def test_membership_change_disturbs_few_replica_sets(self):
        """Adding one shard must only remap ~r/(n+1) of replica sets."""
        p8 = ShardPlacement(list(range(8)))
        p9 = p8.with_shard_added(8)
        ids = np.arange(20_000)
        a = p8.replica_owners("t", ids, 3)
        b = p9.replica_owners("t", ids, 3)
        changed = float((a != b).any(axis=1).mean())
        assert changed < 0.55  # ~3/9 expected; consistent hashing bound

    @pytest.mark.parametrize("hash_seed", ["0", "42"])
    def test_replica_owners_identical_across_processes(self, hash_seed):
        """Replica placement is byte-identical under any PYTHONHASHSEED."""
        snippet = (
            "import numpy as np;"
            "from repro.cluster.shardstore import ShardPlacement;"
            "p = ShardPlacement(list(range(8)), virtual_nodes=64, seed=0);"
            "print(p.replica_owners('table_0', np.arange(300), 3).tolist())"
        )
        out = _subprocess_output(snippet, hash_seed)
        here = ShardPlacement(list(range(8)), virtual_nodes=64, seed=0)
        local = here.replica_owners("table_0", np.arange(300), 3).tolist()
        assert out == str(local)


class TestQuorumPublish:
    @pytest.mark.parametrize(
        "r,expected", [(1, 1), (2, 2), (3, 2), (4, 3), (5, 3)]
    )
    def test_quorum_size(self, r, expected):
        assert _store(replication=r, num_shards=8).quorum == expected

    def test_replication_bounds_validated(self):
        with pytest.raises(ValueError):
            ShardedParameterStore(num_shards=2, replication=3)
        with pytest.raises(ValueError):
            ShardedParameterStore(num_shards=2, replication=0)

    def test_each_row_stored_r_times(self):
        store = _store()
        ids, _, _ = _fill(store)
        assert len(store) == np.unique(ids).size * 3

    def test_publish_acks_with_minority_down_and_records_missed(self):
        store = _store()
        _fill(store)
        store.kill_shard(2)
        _, _, version = _fill(store, seed=1)
        assert store.missed_versions(2) == [version]
        assert store.replication_lag == 1

    def test_publish_refused_leaves_store_untouched(self):
        store = _store(replication=3, num_shards=4)
        _fill(store, n=500)
        resident_before = len(store)
        version_before = store.version
        # R=3 over 4 shards: each row's owner set excludes exactly one
        # shard, so killing two shards strips at least one (for many rows
        # both) replicas -> some row must miss its quorum of 2.
        store.kill_shard(0)
        store.kill_shard(1)
        with pytest.raises(QuorumError) as err:
            _fill(store, n=500, seed=1)
        assert err.value.needed == 2
        assert store.version == version_before
        assert len(store) == resident_before
        assert store.replication_lag == 0  # refused publish leaves no debt

    def test_publish_many_is_atomic_across_batches(self):
        store = _store(replication=3, num_shards=4)
        store.kill_shard(0)
        store.kill_shard(1)
        rng = np.random.default_rng(0)
        ok_ids = np.arange(5)  # may or may not have quorum on its own
        bad_ids = rng.integers(0, 10_000, size=500)  # surely under-quorum
        with pytest.raises(QuorumError):
            store.publish_many(
                [
                    ("a", ok_ids, rng.normal(size=(5, 4))),
                    ("b", bad_ids, rng.normal(size=(500, 4))),
                ]
            )
        assert store.version == 0
        assert len(store) == 0  # batch "a" was not written either

    def test_armed_drop_consumed_once_and_ledgered(self):
        store = _store()
        store.arm_publish_drop(4)
        _, _, v1 = _fill(store)
        assert store.missed_versions(4) == [v1]
        _, _, v2 = _fill(store, seed=1)
        assert store.missed_versions(4) == [v1]  # drop armed once only
        assert v2 == v1 + 1

    def test_kill_revive_validation(self):
        store = _store()
        with pytest.raises(ValueError):
            store.kill_shard(99)
        store.kill_shard(1)
        with pytest.raises(ValueError):
            store.kill_shard(1)
        with pytest.raises(ValueError):
            store.revive_shard(2)
        store.revive_shard(1)
        assert store.down_shard_ids == []


class TestFailoverReads:
    def test_pull_rows_and_delta_survive_single_kill(self):
        store = _store()
        ids, rows, _ = _fill(store)
        # Oracle: id-sorted last-write-wins world state.
        want_ids, want_rows, _ = store.pull_delta("emb", 0)
        store.kill_shard(5)
        got_ids, got_rows, _ = store.pull_delta("emb", 0)
        np.testing.assert_array_equal(got_ids, want_ids)
        np.testing.assert_array_equal(got_rows, want_rows)
        found, got = store.pull_rows("emb", want_ids)
        assert found.all()
        np.testing.assert_array_equal(got, want_rows)

    def test_stale_revived_replica_never_wins_reads(self):
        store = _store()
        ids = np.arange(500)
        rng = np.random.default_rng(0)
        store.publish_batch("emb", ids, rng.normal(size=(500, 4)))
        store.kill_shard(3)
        fresh = rng.normal(size=(500, 4)).astype(np.float32)  # the store's lane
        store.publish_batch("emb", ids, fresh)
        store.revive_shard(3)  # stale: still holds the v1 payloads
        found, got = store.pull_rows("emb", ids)
        assert found.all()
        np.testing.assert_array_equal(got, fresh)
        got_ids, got_rows, _ = store.pull_delta("emb", 0)
        np.testing.assert_array_equal(got_ids, ids)
        np.testing.assert_array_equal(got_rows, fresh)

    def test_reads_during_outage_match_acked_state_under_churn(self):
        store = _store()
        rng = np.random.default_rng(7)
        world: dict[int, np.ndarray] = {}
        for step in range(6):
            ids = rng.integers(0, 800, size=300)
            rows = rng.normal(size=(300, 4)).astype(np.float32)  # the store's lane
            store.publish_batch("emb", ids, rows)
            for i, rid in enumerate(ids.tolist()):
                world[rid] = rows[i]
            if step == 2:
                store.kill_shard(1)
            if step == 4:
                store.revive_shard(1)
                store.kill_shard(6)
        want_ids = np.array(sorted(world), dtype=np.int64)
        want_rows = np.stack([world[int(i)] for i in want_ids])
        found, got = store.pull_rows("emb", want_ids)
        assert found.all()
        np.testing.assert_array_equal(got, want_rows)


class TestRepair:
    def test_repair_restores_byte_identical_replicas(self):
        store = _store()
        _fill(store)
        store.kill_shard(2)
        _fill(store, seed=1)
        _fill(store, seed=2)
        store.revive_shard(2)
        report = check_replica_convergence(store)
        assert not report.converged
        plan = store.plan_repair()
        assert plan.stale_shards == [2]
        assert plan.rows_to_copy > 0
        assert plan.bytes_to_copy == plan.rows_to_copy * store.row_bytes
        result = store.repair(plan)
        assert result.rows_copied == plan.rows_to_copy
        assert result.shards_healed == [2]
        assert store.replication_lag == 0
        assert_converged(store)

    def test_repair_skips_still_down_shards(self):
        store = _store()
        _fill(store)
        store.kill_shard(2)
        _, _, version = _fill(store, seed=1)
        report = store.repair()  # shard 2 unreachable: nothing to do yet
        assert report.shards_healed == []
        assert store.missed_versions(2) == [version]
        store.revive_shard(2)
        assert store.repair().shards_healed == [2]
        assert_converged(store)

    def test_repair_without_damage_is_noop(self):
        store = _store()
        _fill(store)
        report = store.repair()
        assert report.rows_copied == 0
        assert report.shards_healed == []
        assert store.plan_repair().is_empty

    def test_healed_replica_serves_delta_log_entries(self):
        """Repaired rows land with log entries, so pulls from the healed
        replica's log serve them at their original versions."""
        store = _store()
        ids, _, _ = _fill(store, n=400)
        store.kill_shard(0)
        _, _, v2 = _fill(store, n=400, seed=1)
        store.revive_shard(0)
        store.repair()
        # every shard's log must now answer a since=v2-1 pull consistently
        want_ids, want_rows, _ = store.pull_delta("emb", v2 - 1)
        store.kill_shard(7)  # force reconciliation through other replicas
        got_ids, got_rows, _ = store.pull_delta("emb", v2 - 1)
        np.testing.assert_array_equal(got_ids, want_ids)
        np.testing.assert_array_equal(got_rows, want_rows)


class TestRebalanceUnderReplication:
    def test_add_shard_migrates_all_copies(self):
        store = _store()
        ids, _, _ = _fill(store)
        report = store.add_shard()
        assert store.num_shards == 9
        assert 0.0 < report.moved_fraction < 0.6
        assert len(store) == np.unique(ids).size * 3  # still exactly R copies
        assert_converged(store)

    def test_remove_shard_migrates_all_copies(self):
        store = _store()
        ids, _, _ = _fill(store)
        store.remove_shard(3)
        assert store.num_shards == 7
        assert len(store) == np.unique(ids).size * 3
        assert_converged(store)
        want = np.unique(ids)
        found, _ = store.pull_rows("emb", want)
        assert found.all()

    def test_remove_shard_refuses_to_break_replication(self):
        store = _store(replication=3, num_shards=3)
        with pytest.raises(ValueError):
            store.remove_shard(0)

    def test_rebalance_refused_while_shards_down(self):
        store = _store()
        store.kill_shard(0)
        with pytest.raises(RuntimeError):
            store.add_shard()

    def test_rebalance_preserves_delta_semantics_under_replication(self):
        store = _store()
        _fill(store)
        v1 = store.version
        _fill(store, seed=1)
        before = store.pull_delta("emb", v1)
        store.add_shard()
        after = store.pull_delta("emb", v1)
        np.testing.assert_array_equal(before[0], after[0])
        np.testing.assert_array_equal(before[1], after[1])


class TestCompactionWatermark:
    def test_registered_client_pins_compaction(self):
        """The store refuses to truncate entries a registered reader needs."""
        from repro.cluster.shardstore import ShardClient

        store = ShardedParameterStore(
            num_shards=4, row_bytes=None, row_dim=2
        )
        rng = np.random.default_rng(0)
        store.publish_batch("t", np.arange(100), rng.normal(size=(100, 2)))
        client = ShardClient(store)
        client.pull_table("t")  # registers sync point at v1
        sync = client.synced_version
        store.publish_batch("t", np.arange(50), rng.normal(size=(50, 2)))
        store.publish_batch(
            "t", np.arange(50, 90), rng.normal(size=(40, 2))
        )
        oracle = store.pull_delta("t", sync)
        store.compact()  # truncates only up to the client's sync point
        assert store.oldest_sync_point() == sync
        got_ids, got_rows, _ = client.pull_table("t")
        np.testing.assert_array_equal(got_ids, oracle[0])
        np.testing.assert_array_equal(got_rows, oracle[1])

    def test_stale_client_across_compaction_regression(self):
        """A reader below the truncation floor is still answered exactly
        (resident-scan fallback), never with silently missing rows."""
        store = ShardedParameterStore(
            num_shards=4, row_bytes=None, row_dim=2
        )
        rng = np.random.default_rng(0)
        store.publish_batch("t", np.arange(60), rng.normal(size=(60, 2)))
        store.publish_batch(
            "t", np.arange(30, 80), rng.normal(size=(50, 2))
        )
        oracle_from_zero = store.pull_delta("t", 0)
        # a caught-up reader lets compaction truncate the whole log
        store.register_sync_point(store.version)
        dropped = store.compact()
        assert dropped > 0
        got = store.pull_delta("t", 0)  # below the floor -> fallback path
        np.testing.assert_array_equal(got[0], oracle_from_zero[0])
        np.testing.assert_array_equal(got[1], oracle_from_zero[1])

    def test_client_close_releases_the_pin(self):
        from repro.cluster.shardstore import ShardClient

        store = ShardedParameterStore(
            num_shards=4, row_bytes=None, row_dim=2
        )
        store.publish_batch("t", np.arange(10), np.zeros((10, 2)))
        client = ShardClient(store)
        client.pull_table("t")
        assert store.oldest_sync_point() == store.version
        client.close()
        assert store.oldest_sync_point() is None
        client.close()  # idempotent

    def test_auto_compact_bounds_log_growth(self):
        store = ShardedParameterStore(
            num_shards=4, row_bytes=None, row_dim=2, auto_compact_every=4
        )
        rng = np.random.default_rng(0)
        for _ in range(16):
            store.publish_batch(
                "t", np.arange(200), rng.normal(size=(200, 2))
            )
        log_entries = sum(s.log_entries for s in store.shards.values())
        # 16 publishes x 200 ids would be 3200 entries unbounded; the
        # keep-latest squeeze caps it near the resident count.
        assert log_entries <= 200 * 4

    def test_registered_sync_points_drive_compaction(self):
        """Truncation follows the oldest registered reader and never
        passes it: a lagging reader still resyncs from the log."""
        store = ShardedParameterStore(
            num_shards=4, row_bytes=None, row_dim=2
        )
        rng = np.random.default_rng(0)
        marks = []
        for _ in range(3):
            store.publish_batch(
                "t", np.arange(100), rng.normal(size=(100, 2))
            )
            marks.append(store.version)
        lagging = store.register_sync_point(marks[1])
        store.register_sync_point(marks[2])
        dropped = store.compact()
        assert dropped > 0

        def floors():
            return {
                s.block("t").log_floor
                for s in store.shards.values()
                if s.block("t") is not None
            }

        assert floors() == {marks[1]}
        assert store.pull_delta("t", marks[1])[0].size == 100
        store.update_sync_point(lagging, marks[2])
        store.publish_batch("t", np.arange(10), rng.normal(size=(10, 2)))
        store.compact()
        assert floors() == {marks[2]}
        assert store.pull_delta("t", marks[2])[0].size == 10


def _chaos_seeds() -> list[int]:
    seeds = [101, 202, 303]
    extra = os.environ.get("REPRO_CHAOS_SEED")
    if extra is not None:
        seeds = [int(extra)]
    return seeds


class TestChaos:
    """Property suite: randomized-but-seeded kill/revive/drop schedules."""

    @pytest.mark.parametrize("seed", _chaos_seeds())
    def test_no_acked_loss_and_byte_identical_convergence(self, seed):
        store = _store(replication=3, num_shards=8)
        schedule = FaultSchedule.random(
            seed,
            store.shard_ids,
            horizon_s=40.0,
            kills=3,
            drops=3,
            delays=1,
            max_concurrent_down=1,  # below quorum slack for R=3
            outage_s=5.0,
        )
        ledger, plane = run_chaos_schedule(
            store, schedule, seed=seed, windows=40, tables=("emb", "lora")
        )
        assert ledger.acked_publishes > 0
        quiesce(store, plane)
        assert_no_acked_loss(store, ledger)
        assert_converged(store)
        assert store.replication_lag == 0

    @pytest.mark.parametrize("seed", _chaos_seeds()[:1])
    def test_chaos_run_is_deterministic(self, seed):
        def run():
            store = _store(replication=3, num_shards=8)
            schedule = FaultSchedule.random(
                seed, store.shard_ids, kills=2, drops=2,
                max_concurrent_down=1,
            )
            ledger, plane = run_chaos_schedule(
                store, schedule, seed=seed, windows=20,
                check_every_window=False,
            )
            quiesce(store, plane)
            state = {
                sid: store.shards[sid].resident_ids("emb").tolist()
                for sid in store.shard_ids
            }
            return store.version, ledger.acked_publishes, state

        assert run() == run()

    def test_over_quorum_schedule_refuses_not_loses(self):
        """Killing a quorum of replicas makes publishes FAIL — loudly and
        atomically — rather than ack-and-lose."""
        store = _store(replication=3, num_shards=4)
        ids, _, _ = _fill(store, n=300)
        want = store.pull_delta("emb", 0)
        store.kill_shard(0)
        store.kill_shard(1)
        with pytest.raises(QuorumError):
            _fill(store, n=300, seed=1)
        # previously acked state is fully intact and readable
        got = store.pull_delta("emb", 0)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])

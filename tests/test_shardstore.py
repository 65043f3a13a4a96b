"""Tests for the sharded parameter-plane subsystem (placement + store)."""

import itertools
import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from reference.dict_store import SeedDictStore
from reference.replication import pull_rows
from repro.cluster.shardstore import (
    ShardedParameterStore,
    ShardPlacement,
    stable_table_hash,
)


@pytest.fixture
def store():
    return ShardedParameterStore(num_shards=4, row_bytes=32, row_dim=4)


def _primary(placement, table, ids):
    """Each id's ring owner: column 0 of its replica set."""
    return placement.replica_owners(table, ids, 1)[:, 0]


def _subprocess_output(snippet: str, hash_seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    return subprocess.run(
        [sys.executable, "-c", snippet],
        capture_output=True, text=True, env=env, check=True,
    ).stdout.strip()


class TestPlacement:
    def test_table_hash_stable_and_distinct(self):
        assert stable_table_hash("table_0") == stable_table_hash("table_0")
        assert stable_table_hash("table_0") != stable_table_hash("table_1")
        assert stable_table_hash("ab") != stable_table_hash("ba")
        stable_table_hash("")  # empty name must not crash

    def test_owners_are_vectorized_and_consistent_with_scalar(self):
        p = ShardPlacement(list(range(8)))
        ids = np.arange(100)
        batch = _primary(p, "t", ids)
        singles = [int(_primary(p, "t", np.array([i]))[0]) for i in ids]
        assert batch.tolist() == singles

    def test_tables_are_placed_independently(self):
        p = ShardPlacement(list(range(8)))
        ids = np.arange(2000)
        a = _primary(p, "a", ids)
        b = _primary(p, "b", ids)
        assert (a != b).any()

    def test_add_shard_remaps_small_fraction(self):
        p = ShardPlacement(list(range(8)))
        grown = p.with_shard_added(8)
        ids = np.arange(50_000)
        frac = (_primary(p, "t", ids) != _primary(grown, "t", ids)).mean()
        # ideal is 1/9; allow slack for a small ring
        assert 0.0 < frac < 0.3

    def test_clean_primaries_inside_available_never_change_coverage(self):
        """Every placement of 3-6 shards, every ``r``, every available set
        and every clean subset of it: the clean term is inert."""
        for n in range(3, 7):
            p = ShardPlacement(list(range(n)))
            subsets = [
                c for k in range(n + 1) for c in itertools.combinations(range(n), k)
            ]
            for r in range(1, n + 1):
                for available in subsets:
                    base = p.coverage_ok(r, available)
                    for k in range(len(available) + 1):
                        for clean in itertools.combinations(available, k):
                            assert p.coverage_ok(r, available, clean) == base

    def test_clean_primary_outside_available_flips_coverage(self):
        """The resilient wave's case: all four primaries answered clean in
        earlier rounds, the last round reached only shards 0 and 1."""
        p = ShardPlacement(list(range(4)))
        assert not p.coverage_ok(3, [0, 1])
        assert p.coverage_ok(3, [0, 1], clean_primary_ids=[0, 1, 2, 3])

    def test_membership_validation(self):
        p = ShardPlacement([0, 1])
        with pytest.raises(ValueError):
            p.with_shard_added(1)
        with pytest.raises(ValueError):
            p.with_shard_removed(5)
        with pytest.raises(ValueError):
            ShardPlacement([3]).with_shard_removed(3)

    @pytest.mark.parametrize("hash_seed", ["0", "42"])
    def test_placement_identical_across_processes(self, hash_seed):
        """Shard assignment is byte-identical under different PYTHONHASHSEED."""
        snippet = (
            "import numpy as np;"
            "from repro.cluster.shardstore import ShardPlacement;"
            "p = ShardPlacement(list(range(8)));"
            "print(p.replica_owners('table_0', np.arange(500), 1)[:, 0].tolist())"
        )
        out = _subprocess_output(snippet, hash_seed)
        here = ShardPlacement(list(range(8)))
        assert out == str(_primary(here, "table_0", np.arange(500)).tolist())


class TestPublishPull:
    def test_publish_bumps_version_and_counts(self, store):
        v1 = store.publish_batch("t", np.array([0, 1]), np.zeros((2, 4)))
        v2 = store.publish_batch("t", np.array([2]), np.zeros((1, 4)))
        assert (v1, v2) == (1, 2)
        assert len(store) == 3
        assert store.total_bytes == 3 * 32

    def test_length_mismatch_raises(self, store):
        with pytest.raises(ValueError):
            store.publish_batch("t", np.array([0]), np.zeros((2, 4)))

    def test_failed_publish_does_not_bump_version(self, store):
        with pytest.raises(ValueError):
            store.publish_batch("t", np.array([0]), np.zeros((2, 4)))
        assert store.version == 0

    def test_publish_many_validates_all_batches_before_writing(self, store):
        with pytest.raises(ValueError):
            store.publish_many(
                [
                    ("a", np.array([0]), np.zeros((1, 4))),
                    ("b", np.array([0]), np.zeros((9, 4))),  # malformed
                ]
            )
        assert store.version == 0
        assert len(store) == 0  # batch 'a' did not half-apply

    def test_width_grows_and_zero_pads(self, store):
        """A wider batch re-widens the table; narrower batches zero-pad.

        This is the dynamic-rank LoRA case: the synchronizer's merged row
        width tracks max(rank) across trainers, which moves between rounds.
        """
        store.publish_batch("t", np.arange(6), np.ones((6, 4)))
        store.publish_batch("t", np.array([1]), np.full((1, 6), 2.0))
        assert store.dim_of("t") == 6
        mask, rows = pull_rows(store, "t", np.array([0, 1]))
        assert mask.all() and rows.shape == (2, 6)
        np.testing.assert_array_equal(rows[0], [1, 1, 1, 1, 0, 0])
        np.testing.assert_array_equal(rows[1], np.full(6, 2.0))
        store.publish_batch("t", np.array([2]), np.full((1, 3), 5.0))
        _, rows = pull_rows(store, "t", np.array([2]))
        np.testing.assert_array_equal(rows[0], [5, 5, 5, 0, 0, 0])
        idx, delta_rows, _ = store.pull_delta("t", 0)
        assert delta_rows.shape == (6, 6)

    def test_duplicate_ids_in_one_batch_last_wins(self, store):
        rows = np.arange(12, dtype=float).reshape(3, 4)
        store.publish_batch("t", np.array([5, 7, 5]), rows)
        assert len(store) == 2
        mask, out = pull_rows(store, "t", np.array([5, 7]))
        assert mask.all()
        np.testing.assert_array_equal(out[0], rows[2])  # last occurrence
        np.testing.assert_array_equal(out[1], rows[1])

    @pytest.mark.parametrize("seed", range(5))
    def test_unsorted_batch_with_duplicates_still_resolves_last_wins(self, seed):
        """Only a sorted-unique batch skips the dedupe; an unsorted batch
        with repeats lands the same bytes as its last-wins form does."""
        rng = np.random.default_rng(seed)
        ids = rng.integers(0, 50, 120)
        rows = rng.normal(size=(120, 4)).astype(np.float32)
        last = {int(i): k for k, i in enumerate(ids)}
        want_ids = np.array(sorted(last), dtype=np.int64)
        want_rows = rows[[last[i] for i in want_ids.tolist()]]
        stores = []
        for batch in ((ids, rows), (want_ids, want_rows)):
            stores.append(
                ShardedParameterStore(
                    num_shards=4, row_bytes=None, row_dim=4, replication=3
                )
            )
            stores[-1].publish_batch("t", *batch)
        got_ids, got_rows, _ = stores[0].pull_delta("t", 0)
        assert got_ids.tobytes() == want_ids.tobytes()
        assert got_rows.tobytes() == want_rows.tobytes()
        for sid in stores[0].shard_ids:
            unsorted, deduped = (
                s.shards[sid].export_table("t") for s in stores
            )
            for a, b in zip(unsorted, deduped):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_pull_rows_gather_and_miss(self, store):
        store.publish_batch("t", np.array([3]), np.full((1, 4), 7.0))
        mask, rows = pull_rows(store, "t", np.array([3, 9]))
        assert mask.tolist() == [True, False]
        np.testing.assert_array_equal(rows[0], np.full(4, 7.0))
        np.testing.assert_array_equal(rows[1], np.zeros(4))

    def test_pull_rows_unknown_table_uses_pinned_dim(self, store):
        mask, rows = pull_rows(store, "never", np.array([1, 2]))
        assert not mask.any()
        assert rows.shape == (2, 4)  # row_dim pinned at construction

    def test_dim_pinned_at_first_publish(self):
        s = ShardedParameterStore(num_shards=2, row_bytes=16)
        assert s.dim_of("t") == 1
        s.publish_batch("t", np.array([0]), np.zeros((1, 6)))
        assert s.dim_of("t") == 6
        idx, rows, _ = s.pull_delta("t", 99)  # empty, but correctly shaped
        assert rows.shape == (0, 6)

    def test_published_rows_are_copies(self, store):
        rows = np.zeros((1, 4))
        store.publish_batch("t", np.array([0]), rows)
        rows += 99.0
        _, pulled = pull_rows(store, "t", np.array([0]))
        np.testing.assert_array_equal(pulled[0], np.zeros(4))

    def test_write_stats_accumulate_across_shards(self, store):
        store.publish_batch("t", np.arange(64), np.zeros((64, 4)))
        assert sum(s.rows_written for s in store.shard_stats) == 64
        assert sum(s.bytes_written for s in store.shard_stats) == 64 * 32
        # keys actually spread over multiple shards
        assert sum(1 for s in store.shard_stats if s.rows_written) > 1


class TestDeltaProtocol:
    def test_empty_delta(self, store):
        idx, rows, v = store.pull_delta("t", since_version=store.version)
        assert idx.size == 0
        assert rows.shape == (0, 4)
        assert v == store.version

    def test_delta_since_version(self, store):
        store.publish_batch("t", np.array([0]), np.zeros((1, 4)))
        v = store.version
        store.publish_batch("t", np.array([1, 2]), np.ones((2, 4)))
        idx, rows, now = store.pull_delta("t", since_version=v)
        assert idx.tolist() == [1, 2]
        assert now == store.version

    def test_republish_same_indices_in_one_version(self, store):
        """Re-publishing an id twice in one batch yields ONE delta entry."""
        store.publish_batch(
            "t", np.array([4, 4]), np.stack([np.ones(4), np.full(4, 2.0)])
        )
        idx, rows, _ = store.pull_delta("t", 0)
        assert idx.tolist() == [4]
        np.testing.assert_array_equal(rows[0], np.full(4, 2.0))

    def test_rewrite_advances_row_version(self, store):
        store.publish_batch("t", np.array([0]), np.zeros((1, 4)))
        v = store.version
        store.publish_batch("t", np.array([0]), np.ones((1, 4)))
        idx, rows, _ = store.pull_delta("t", since_version=v)
        assert idx.tolist() == [0]
        np.testing.assert_array_equal(rows[0], np.ones(4))

    def test_interleaved_tables_are_namespaced(self, store):
        store.publish_batch("a", np.array([0]), np.zeros((1, 4)))
        store.publish_batch("b", np.array([1]), np.ones((1, 4)))
        store.publish_batch("a", np.array([2]), np.full((1, 4), 2.0))
        idx_a, _, _ = store.pull_delta("a", 0)
        idx_b, _, _ = store.pull_delta("b", 0)
        assert idx_a.tolist() == [0, 2]
        assert idx_b.tolist() == [1]
        idx_none, _, _ = store.pull_delta("c", 0)
        assert idx_none.size == 0

    def test_since_version_in_the_future(self, store):
        store.publish_batch("t", np.arange(10), np.zeros((10, 4)))
        idx, rows, v = store.pull_delta("t", since_version=store.version + 50)
        assert idx.size == 0
        assert v == store.version

    def test_publish_many_is_one_version(self, store):
        v = store.publish_many(
            [
                ("a", np.array([0]), np.zeros((1, 4))),
                ("b", np.array([1]), np.ones((1, 4))),
            ]
        )
        assert v == store.version == 1
        idx_a, _, _ = store.pull_delta("a", 0)
        idx_b, _, _ = store.pull_delta("b", 0)
        assert idx_a.tolist() == [0] and idx_b.tolist() == [1]

    def test_compaction_preserves_delta_semantics(self, store):
        rng = np.random.default_rng(0)
        for _ in range(20):
            ids = rng.integers(0, 50, size=16)
            store.publish_batch("t", ids, rng.normal(size=(16, 4)))
        mid = 10
        before = store.pull_delta("t", mid)
        dropped = store.compact()
        assert dropped > 0
        after = store.pull_delta("t", mid)
        np.testing.assert_array_equal(before[0], after[0])
        np.testing.assert_array_equal(before[1], after[1])

    @pytest.mark.parametrize("replication", [1, 3])
    def test_deltas_match_the_seed_dict_store(self, replication):
        """A seeded fill / republish sequence over two tables, with repeats
        inside batches, pulled from every past version."""
        rng = np.random.default_rng(replication)
        sharded = ShardedParameterStore(
            num_shards=6, row_bytes=32, row_dim=4, replication=replication
        )
        seed = SeedDictStore()
        for window in range(12):
            table = "b" if window % 3 == 2 else "a"
            ids = np.arange(500) if window == 0 else rng.integers(0, 500, size=40)
            rows = rng.normal(size=(ids.size, 4)).astype(np.float32)  # the lane
            assert sharded.publish_batch(table, ids, rows) == seed.publish_batch(
                table, ids, rows
            )
            for since in range(seed.version + 1):
                for name in "ab":
                    got = sharded.pull_delta(name, since)
                    want = seed.pull_delta(name, since)
                    np.testing.assert_array_equal(got[0], want[0])
                    assert got[2] == want[2]
                    if want[0].size:
                        np.testing.assert_array_equal(got[1], want[1])

    @pytest.mark.parametrize("hash_seed", ["0", "42"])
    def test_store_state_identical_across_processes(self, hash_seed):
        """Per-shard residency is byte-identical under different PYTHONHASHSEED."""
        snippet = (
            "import numpy as np;"
            "from repro.cluster.shardstore import ShardedParameterStore;"
            "s = ShardedParameterStore(num_shards=8, row_bytes=8, row_dim=1);"
            "s.publish_batch('t', np.arange(1000), np.zeros((1000, 1)));"
            "print([sorted(sh.resident_ids('t').tolist()) "
            "for sh in s.shards.values()])"
        )
        out = _subprocess_output(snippet, hash_seed)
        here = ShardedParameterStore(num_shards=8, row_bytes=8, row_dim=1)
        here.publish_batch("t", np.arange(1000), np.zeros((1000, 1)))
        local = [
            sorted(sh.resident_ids("t").tolist()) for sh in here.shards.values()
        ]
        assert out == str(local)


class TestRebalance:
    def _filled(self, rows=5000):
        store = ShardedParameterStore(num_shards=4, row_bytes=16, row_dim=2)
        rng = np.random.default_rng(1)
        store.publish_batch("t", np.arange(rows), rng.normal(size=(rows, 2)))
        store.publish_batch("u", np.arange(rows // 2), rng.normal(size=(rows // 2, 2)))
        return store

    def test_add_shard_moves_only_owned_ranges(self):
        store = self._filled()
        before_idx, before_rows, _ = store.pull_delta("t", 0)
        report = store.add_shard()
        assert store.num_shards == 5
        assert 0.0 < report.moved_fraction < 0.45
        after_idx, after_rows, _ = store.pull_delta("t", 0)
        np.testing.assert_array_equal(before_idx, after_idx)
        np.testing.assert_allclose(before_rows, after_rows)

    def test_remove_shard_drains_and_preserves_rows(self):
        store = self._filled()
        victim = store.shard_ids[0]
        mask_before, rows_before = pull_rows(store, "t", np.arange(100))
        store.remove_shard(victim)
        assert victim not in store.shards
        mask_after, rows_after = pull_rows(store, "t", np.arange(100))
        np.testing.assert_array_equal(mask_before, mask_after)
        np.testing.assert_allclose(rows_before, rows_after)

    def test_delta_versions_survive_migration(self):
        store = ShardedParameterStore(num_shards=2, row_bytes=8, row_dim=1)
        store.publish_batch("t", np.arange(100), np.zeros((100, 1)))
        v1 = store.version
        store.publish_batch("t", np.arange(50), np.ones((50, 1)))
        store.add_shard()
        idx, rows, _ = store.pull_delta("t", v1)
        assert idx.tolist() == list(range(50))
        np.testing.assert_array_equal(rows, np.ones((50, 1)))

    def test_remove_unknown_shard_raises(self):
        with pytest.raises(ValueError):
            ShardedParameterStore(num_shards=2).remove_shard(99)


class TestGrowth:
    def test_blocks_grow_past_initial_capacity(self):
        store = ShardedParameterStore(num_shards=1, row_bytes=8, row_dim=1)
        ids = np.arange(1000)
        store.publish_batch("t", ids, np.arange(1000, dtype=float)[:, None])
        mask, rows = pull_rows(store, "t", ids)
        assert mask.all()
        np.testing.assert_array_equal(rows[:, 0], np.arange(1000, dtype=float))

    def test_growth_keeps_every_resident_slot_and_row(self):
        """Ids granted slots out of key order keep them across a growth
        (a repack in key order would move them under the row directory)."""
        store = ShardedParameterStore(num_shards=1, row_bytes=None, row_dim=2)
        for ids in ([40, 50], [10, 20], [5]):
            ids = np.asarray(ids)
            store.publish_batch("t", ids, np.stack([ids, -ids], axis=1))
        block = store.shards[0].block("t")
        resident = block.resident_ids
        slots = block.slots.lookup(resident)
        assert slots.tolist() == [4, 2, 3, 0, 1]  # ids 5, 10, 20, 40, 50
        rows = block.rows[slots].copy()
        store.publish_batch("t", np.arange(100, 200), np.ones((100, 2)))
        assert block.capacity > 64
        np.testing.assert_array_equal(block.slots.lookup(resident), slots)
        np.testing.assert_array_equal(block.rows[slots], rows)
        np.testing.assert_array_equal(block.row_version[slots], [3, 2, 2, 1, 1])
        assert (store._directories["t"].slot[resident, 0] == slots).all()

"""Tests for the seed parameter-server API surface of the sharded store:
versioned publishes, point and delta reads, process-stable placement."""

import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from reference.replication import pull_rows
from repro.cluster.shardstore import ShardedParameterStore


@pytest.fixture
def ps():
    return ShardedParameterStore(num_shards=4, row_bytes=32)


def shard_of(store, table, row_id):
    """Owning shard of one key, asked one id at a time."""
    return int(store.placement.replica_owners(table, np.array([row_id]), 1)[0, 0])


class TestPublish:
    def test_version_bumps_per_batch(self, ps):
        v1 = ps.publish_batch("t", np.array([0, 1]), np.zeros((2, 4)))
        v2 = ps.publish_batch("t", np.array([2]), np.zeros((1, 4)))
        assert (v1, v2) == (1, 2)

    def test_length_mismatch_raises(self, ps):
        with pytest.raises(ValueError):
            ps.publish_batch("t", np.array([0]), np.zeros((2, 4)))

    def test_write_stats_accumulate(self, ps):
        ps.publish_batch("t", np.arange(8), np.zeros((8, 4)))
        written = sum(s.rows_written for s in ps.shard_stats)
        assert written == 8
        assert sum(s.bytes_written for s in ps.shard_stats) == 8 * 32

    def test_total_bytes(self, ps):
        ps.publish_batch("t", np.arange(5), np.zeros((5, 4)))
        assert ps.total_bytes == 5 * 32
        assert len(ps) == 5


class TestPull:
    def test_pull_rows_found_and_missing(self, ps):
        ps.publish_batch("t", np.array([3]), np.full((1, 4), 7.0))
        mask, rows = pull_rows(ps, "t", np.array([3, 9]))
        assert mask.tolist() == [True, False]
        np.testing.assert_array_equal(rows[0], np.full(4, 7.0))
        np.testing.assert_array_equal(rows[1], np.zeros(4))

    def test_pull_rows_all_missing(self, ps):
        mask, rows = pull_rows(ps, "t", np.array([1, 2]))
        assert not mask.any()

    def test_pull_delta_since_version(self, ps):
        ps.publish_batch("t", np.array([0]), np.zeros((1, 4)))
        v = ps.version
        ps.publish_batch("t", np.array([1, 2]), np.ones((2, 4)))
        idx, rows, now = ps.pull_delta("t", since_version=v)
        assert idx.tolist() == [1, 2]
        assert now == ps.version

    def test_pull_delta_empty(self, ps):
        idx, rows, v = ps.pull_delta("t", since_version=ps.version)
        assert idx.size == 0

    def test_rewrite_advances_row_version(self, ps):
        ps.publish_batch("t", np.array([0]), np.zeros((1, 4)))
        v = ps.version
        ps.publish_batch("t", np.array([0]), np.ones((1, 4)))
        idx, rows, _ = ps.pull_delta("t", since_version=v)
        assert idx.tolist() == [0]
        np.testing.assert_array_equal(rows[0], np.ones(4))

    def test_tables_are_namespaced(self, ps):
        ps.publish_batch("a", np.array([0]), np.zeros((1, 4)))
        idx, _, _ = ps.pull_delta("b", since_version=0)
        assert idx.size == 0

    def test_published_rows_are_copies(self, ps):
        rows = np.zeros((1, 4))
        ps.publish_batch("t", np.array([0]), rows)
        rows += 99.0
        _, pulled = pull_rows(ps, "t", np.array([0]))
        np.testing.assert_array_equal(pulled[0], np.zeros(4))

    def test_pull_rows_vectorized_gather_many(self, ps):
        """Large gathers come back correct without any per-id probing."""
        ids = np.arange(500)
        ps.publish_batch("t", ids, np.tile(ids[:, None], (1, 4)).astype(float))
        mask, rows = pull_rows(ps, "t", np.array([499, 7, 1000, 0]))
        assert mask.tolist() == [True, True, False, True]
        np.testing.assert_array_equal(rows[0], np.full(4, 499.0))
        np.testing.assert_array_equal(rows[2], np.zeros(4))


class TestShardDeterminism:
    """Shard placement must not depend on the process hash seed.

    Regression: the seed implementation's per-key shard lookup used the
    builtin ``hash()``, which is salted per process via PYTHONHASHSEED, so
    shard statistics differed between processes.  Placement now routes
    through the splitmix64 ring.
    """

    def test_pinned_shard_assignments(self):
        ps = ShardedParameterStore(num_shards=4, row_bytes=32)
        shards = [shard_of(ps, "t", i) for i in range(8)]
        assert shards == [0, 2, 0, 0, 3, 1, 2, 3]

    def test_single_id_owner_agrees_with_batch(self, ps):
        ids = np.arange(64)
        owners = ps.placement.replica_owners("t", ids, 1)[:, 0]
        singles = [shard_of(ps, "t", int(i)) for i in ids]
        assert owners.tolist() == singles

    @pytest.mark.parametrize("hash_seed", ["0", "42"])
    def test_shard_stats_identical_across_processes(self, hash_seed):
        """Per-shard write counts are byte-identical under any PYTHONHASHSEED."""
        snippet = (
            "import numpy as np;"
            "from repro.cluster.shardstore import ShardedParameterStore;"
            "ps = ShardedParameterStore(num_shards=4, row_bytes=32);"
            "ps.publish_batch('t', np.arange(256), np.zeros((256, 4)));"
            "print([s.rows_written for s in ps.shard_stats])"
        )
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hash_seed
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        out = subprocess.run(
            [sys.executable, "-c", snippet],
            capture_output=True, text=True, env=env, check=True,
        ).stdout.strip()
        here = ShardedParameterStore(num_shards=4, row_bytes=32)
        here.publish_batch("t", np.arange(256), np.zeros((256, 4)))
        assert out == str([s.rows_written for s in here.shard_stats])

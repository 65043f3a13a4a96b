"""Tests for the consistent-hash request router."""

import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.serving.router import ConsistentHashRouter


@pytest.fixture
def keys():
    return np.random.default_rng(0).integers(0, 1 << 31, 5000)


class TestRouting:
    def test_validation(self):
        with pytest.raises(ValueError):
            ConsistentHashRouter([])

    def test_routes_to_known_nodes(self, keys):
        router = ConsistentHashRouter([0, 1, 2, 3])
        nodes = router.route(keys[:100])
        assert set(nodes.tolist()).issubset({0, 1, 2, 3})

    def test_sticky_per_key(self):
        router = ConsistentHashRouter([0, 1, 2])
        a = router.route(np.array([12345]))
        b = router.route(np.array([12345]))
        assert a.tolist() == b.tolist()

    def test_reasonable_balance(self, keys):
        router = ConsistentHashRouter([0, 1, 2, 3])
        shares = np.bincount(router.route(keys), minlength=4)
        assert shares.max() / shares.mean() < 1.6

    def test_single_node_gets_everything(self, keys):
        router = ConsistentHashRouter([7])
        assert (router.route(keys[:200]) == 7).all()


class TestNoSpillover:
    def test_every_request_goes_home(self, keys):
        router = ConsistentHashRouter([0, 1])
        first = router.route(keys[:100])
        router.reset_window()
        np.testing.assert_array_equal(router.route(keys[:100]), first)
        assert router.stats.routed == 200
        assert router.stats.spill_ratio == 0.0


class TestReplicaAssign:
    def test_first_owner_is_the_home_node(self, keys):
        router = ConsistentHashRouter([0, 1, 2, 3])
        owners = router.replica_assign(keys[:500], 3)
        assert owners.shape == (500, 3)
        np.testing.assert_array_equal(owners[:, 0], router.route(keys[:500]))

    def test_owners_of_a_key_are_distinct(self, keys):
        owners = ConsistentHashRouter([5, 6, 7, 8]).replica_assign(keys, 4)
        assert (np.sort(owners, axis=1) == [5, 6, 7, 8]).all()

    def test_placement_counts_no_traffic(self, keys):
        router = ConsistentHashRouter([0, 1, 2])
        router.replica_assign(keys, 2)
        assert router.stats.routed == 0
        assert router.replica_assign(np.array([], dtype=np.int64), 2).shape == (0, 2)

    def test_replica_count_must_fit_the_fleet(self, keys):
        router = ConsistentHashRouter([0, 1, 2])
        for r in (0, 4):
            with pytest.raises(ValueError):
                router.replica_assign(keys[:10], r)


class TestDeterminism:
    """Ring layout and routing must not depend on the process hash seed.

    Regression: the seed implementation used the builtin ``hash()``, which
    is salted per process via PYTHONHASHSEED, so two fleet members could
    disagree on every routing decision.
    """

    PINNED_KEYS = [0, 1, 42, 12345, 999_999_999, 2**31 - 1]

    def test_pinned_assignments(self):
        router = ConsistentHashRouter([0, 1, 2, 3])
        assert router.route(np.array(self.PINNED_KEYS)).tolist() == [
            1, 0, 1, 0, 3, 2,
        ]
        other = ConsistentHashRouter([10, 20, 30])
        assert other.route(np.array(self.PINNED_KEYS)).tolist() == [
            20, 20, 20, 20, 10, 20,
        ]

    def test_single_key_routes_agree_with_batch(self):
        """Without a load bound, routing a key alone or inside a batch
        lands on the same node."""
        batch = ConsistentHashRouter([0, 1, 2, 3]).route(np.array(self.PINNED_KEYS))
        router = ConsistentHashRouter([0, 1, 2, 3])
        singles = [int(router.route(np.array([k]))[0]) for k in self.PINNED_KEYS]
        assert batch.tolist() == singles

    @pytest.mark.parametrize("hash_seed", ["0", "42"])
    def test_identical_across_processes(self, hash_seed):
        """Routing is byte-identical under different PYTHONHASHSEED."""
        snippet = (
            "import numpy as np;"
            "from repro.serving.router import ConsistentHashRouter;"
            "r = ConsistentHashRouter([0, 1, 2, 3]);"
            "print(r.route(np.arange(200)).tolist())"
        )
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hash_seed
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        out = subprocess.run(
            [sys.executable, "-c", snippet],
            capture_output=True, text=True, env=env, check=True,
        ).stdout.strip()
        here = ConsistentHashRouter([0, 1, 2, 3])
        assert out == str(here.route(np.arange(200)).tolist())


class TestRemapStability:
    def test_adding_node_remaps_small_fraction(self, keys):
        before = ConsistentHashRouter([0, 1, 2, 3])
        after = ConsistentHashRouter([0, 1, 2, 3, 4])
        frac = (before.route(keys) != after.route(keys)).mean()
        # ideal is 1/5; allow generous slack for a small ring
        assert frac < 0.45

    def test_same_layout_remaps_nothing(self, keys):
        a = ConsistentHashRouter([0, 1, 2])
        b = ConsistentHashRouter([0, 1, 2])
        assert (a.route(keys[:500]) != b.route(keys[:500])).sum() == 0


class TestCheckedKeyCoercion:
    """Routing keys coerce through a checked dtype (no silent float paths).

    Regression for the bare ``np.asarray(...).astype(np.int64)`` that
    silently accepted float and object inputs: float64 cannot represent
    integers above 2**53, so float-typed keys collapsed neighbouring ids
    onto one ring position.
    """

    def test_float_keys_raise(self):
        router = ConsistentHashRouter([0, 1, 2])
        with pytest.raises(TypeError, match="routing_keys"):
            router.route(np.array([1.0, 2.0]))
        with pytest.raises(TypeError, match="routing_keys"):
            router.route([0.5, 1.5])

    def test_python_ints_beyond_2_53_are_exact(self):
        router = ConsistentHashRouter([0, 1, 2, 3])
        big = 2**53
        # a float64 round-trip maps 2**53 + 1 onto 2**53; the checked
        # int path must keep them distinct hash inputs
        hashes = router._key_hashes([big, big + 1, big + 2, big + 3])
        assert len(set(hashes.tolist())) == 4
        # and plain Python ints route identically to an int64 array
        via_list = router.route([big + 1, big + 3])
        via_array = router.route(np.array([big + 1, big + 3], dtype=np.int64))
        np.testing.assert_array_equal(via_list, via_array)

    def test_uint64_keys_keep_bit_pattern(self):
        router = ConsistentHashRouter([0, 1, 2])
        high = np.array([2**63 + 5, 2**64 - 1], dtype=np.uint64)
        # wrap-identical to the historical int64 round-trip
        as_signed = high.astype(np.int64)
        np.testing.assert_array_equal(
            router._key_hashes(high), router._key_hashes(as_signed)
        )

    def test_object_int_keys_are_accepted(self):
        router = ConsistentHashRouter([0, 1])
        obj = np.array([7, 2**60], dtype=object)
        exact = np.array([7, 2**60], dtype=np.int64)
        np.testing.assert_array_equal(
            router._key_hashes(obj), router._key_hashes(exact)
        )

    def test_object_float_keys_raise(self):
        router = ConsistentHashRouter([0, 1])
        with pytest.raises(TypeError):
            router.route(np.array([1.5, 2], dtype=object))

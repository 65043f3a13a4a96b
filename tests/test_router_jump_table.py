"""The router's bucket jump table against a plain ``searchsorted`` ring.

Every lookup the jump table answers — ``_ring_indices``, ``route`` and
``replica_assign`` for r = 1..3 — must equal the reference over random
keys and over the hashes where a bucket or ring bound could be off by
one: every ring point's hash and its two neighbours, every bucket's first
and last hash, and the two ends of the 32-bit hash space.
"""

import numpy as np
import pytest

from reference.ring import ring_route, routing_keys_for, searchsorted_ring_indices
from repro.serving.router import _JT_BITS, ConsistentHashRouter

RING_SIZES = (1, 2, 8, 64)
BUCKET_SPAN = 1 << (32 - _JT_BITS)


def edge_hashes(router: ConsistentHashRouter) -> np.ndarray:
    ring = router._ring_keys.astype(np.int64)
    starts = np.arange(1 << _JT_BITS, dtype=np.int64) * BUCKET_SPAN
    hashes = np.concatenate(
        [ring - 1, ring, ring + 1, starts, starts + BUCKET_SPAN - 1, [0, (1 << 32) - 1]]
    )
    return np.unique(hashes[(hashes >= 0) & (hashes < 1 << 32)]).astype(np.uint64)


def key_sets(router: ConsistentHashRouter):
    random_keys = np.random.default_rng(len(router.node_ids)).integers(
        0, 1 << 62, size=100_000
    )
    return {"random": random_keys, "edges": routing_keys_for(edge_hashes(router))}


@pytest.fixture(scope="module", params=RING_SIZES, ids=lambda n: f"{n}nodes")
def router(request):
    return ConsistentHashRouter(list(range(request.param)))


def test_edge_keys_hash_to_the_chosen_hashes(router):
    hashes = edge_hashes(router)
    assert hashes[0] == 0 and hashes[-1] == (1 << 32) - 1
    np.testing.assert_array_equal(
        router._key_hashes(routing_keys_for(hashes)), hashes
    )


@pytest.mark.parametrize("which", ["random", "edges"])
def test_ring_indices_match_searchsorted(router, which):
    keys = key_sets(router)[which]
    want = searchsorted_ring_indices(router._ring_keys, router._key_hashes(keys))
    np.testing.assert_array_equal(router._ring_indices(keys), want)


@pytest.mark.parametrize("which", ["random", "edges"])
def test_route_matches_searchsorted(router, which):
    keys = key_sets(router)[which]
    got = router.route(keys)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, ring_route(router, keys))


@pytest.mark.parametrize("which", ["random", "edges"])
def test_replica_assign_matches_searchsorted(router, which):
    keys = key_sets(router)[which]
    idx = searchsorted_ring_indices(router._ring_keys, router._key_hashes(keys))
    for r in range(1, min(3, len(router.node_ids)) + 1):
        np.testing.assert_array_equal(
            router.replica_assign(keys, r), router.replica_owner_table(r)[idx]
        )


def test_table_searches_at_most_one_bucket_per_ring_point(router):
    jump = router._jump
    assert jump.dtype == np.int32 and jump.size == 1 << _JT_BITS
    searched = np.unique(router._ring_keys >> np.uint64(32 - _JT_BITS))
    np.testing.assert_array_equal(np.flatnonzero(jump < 0), searched)
    assert searched.size <= router._ring_keys.size
    assert jump.max() < router._ring_keys.size


def test_eight_node_ring_searches_510_buckets():
    router = ConsistentHashRouter(list(range(8)))
    assert int(np.count_nonzero(router._jump < 0)) == 510

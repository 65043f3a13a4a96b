"""The ring lookup the request router ran before its bucket jump table.

``searchsorted_ring_indices`` is the former ``_ring_indices`` body: one
``np.searchsorted`` per hash over the sorted ring, wrapping past the last
point to the first.  ``ring_route`` and ``ring_replicas`` are the seed
router on top of it: a key's owner is its home point's node, and its
``r`` replicas are the first ``r`` distinct nodes met walking the ring
clockwise from there, one key at a time.  Both share the router's
(stable) key hash, so they isolate the ring lookup; hash stability itself
is pinned in ``test_serving_router.py``.

``routing_keys_for`` inverts the router's key hash, so a test can route
keys whose ring hashes are chosen edge values (a ring point, a bucket's
first or last hash, 0, ``2**32 - 1``).
"""

import numpy as np

from repro.core.kernels import _GOLDEN, _MIX1, _MIX2
from repro.serving.router import _KEY_SEED

_MASK = (1 << 64) - 1


def searchsorted_ring_indices(ring_keys: np.ndarray, hashes: np.ndarray) -> np.ndarray:
    """Index of the first ring point at or past each hash, wrapping to 0."""
    idx = np.searchsorted(ring_keys, hashes)
    idx[idx == ring_keys.size] = 0
    return idx


def ring_route(router, keys) -> np.ndarray:
    """Node of each key's home ring point."""
    idx = searchsorted_ring_indices(
        router._ring_keys, router._key_hashes(np.asarray(keys))
    )
    return router._ring_nodes[idx].astype(np.int64)


def ring_replicas(router, keys, r: int) -> np.ndarray:
    """Walk the ring clockwise from each key's home point, collecting the
    first ``r`` distinct nodes."""
    nodes = router._ring_nodes.tolist()
    idx = searchsorted_ring_indices(
        router._ring_keys, router._key_hashes(np.asarray(keys))
    )
    out = []
    for home in idx.tolist():
        owners: list[int] = []
        for step in range(len(nodes)):
            node = nodes[(home + step) % len(nodes)]
            if node not in owners:
                owners.append(node)
                if len(owners) == r:
                    break
        out.append(owners)
    return np.array(out, dtype=np.int64).reshape(len(out), r)


def _unshift_xor(x: np.ndarray, shift: int) -> np.ndarray:
    """Inverse of ``x ^= x >> shift`` on uint64."""
    out = x.copy()
    for step in range(shift, 64, shift):
        out ^= x >> np.uint64(step)
    return out


def routing_keys_for(hashes) -> np.ndarray:
    """uint64 routing keys whose 32-bit ring hash is exactly ``hashes``.

    splitmix64 is a bijection on 64-bit words; each hash is taken as the
    full 64-bit output (upper half zero) and run backwards through it.
    """
    x = np.asarray(hashes, dtype=np.uint64).copy()
    with np.errstate(over="ignore"):
        x = _unshift_xor(x, 31)
        x *= np.uint64(pow(int(_MIX2), -1, 1 << 64))
        x = _unshift_xor(x, 27)
        x *= np.uint64(pow(int(_MIX1), -1, 1 << 64))
        x = _unshift_xor(x, 30)
        x -= np.uint64((_KEY_SEED * _GOLDEN + 1) & _MASK)
    return x

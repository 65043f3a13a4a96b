"""The ring lookup the request router ran before its bucket jump table.

``searchsorted_ring_indices`` is the former ``_ring_indices`` body: one
``np.searchsorted`` per hash over the sorted ring, wrapping past the last
point to the first.  ``routing_keys_for`` inverts the router's key hash,
so a test can route keys whose ring hashes are chosen edge values (a ring
point, a bucket's first or last hash, 0, ``2**32 - 1``).
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

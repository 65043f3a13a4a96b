"""Embedding-vector reuse via a shadow table (Section IV-D).

The inference engine has already fetched the embedding rows a request needed;
LiveUpdate pins those rows in a tightly packed, mlock'd shared buffer so the
trainer can read them without issuing its own DRAM lookups.  The buffer is a
bounded, recency-ordered map from row id to a pinned row; the simulator
reports the fraction of trainer lookups it absorbs — the quantity that turns
the trainer's access pattern cache-friendly in Fig. 11a.  The sequential
one-key-at-a-time buffer is a test oracle (``tests/reference/reuse.py``);
the simulator runs :class:`BatchedShadowReuse`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BatchedShadowReuse"]


class BatchedShadowReuse:
    """Offline vectorized absorption model of the shadow buffer.

    The serving-window simulator knows its whole publish stream up front,
    so instead of maintaining a live recency buffer one key at a time it
    can answer "would this key be pinned after the first ``q`` publishes?"
    for whole trainer batches at once.  A key is pinned exactly when its
    last publish position is among the ``capacity_rows`` most recent
    distinct-key last positions — the *frontier*, which only the new
    publishes change between calls.  Each call costs O(new publishes +
    capacity + queries) over a last-seen plane per key, a liveness bit per
    position and the ascending frontier, whose first entry is the
    pinning threshold.

    Matches the sequential buffer in ``tests/reference/reuse.py``
    decision-for-decision (pinned by ``tests/test_hw_numa_reuse.py``);
    prefix lengths must not decrease across :meth:`absorbed` calls,
    mirroring simulated time moving forward.

    Parameters
    ----------
    published : numpy.ndarray of int64
        The full publish stream (non-negative ids), in publish order.
    capacity_rows : int
        Maximum pinned rows (sized to fit the training partition's L3 in
        the paper's deployment).
    """

    def __init__(self, published: np.ndarray, capacity_rows: int) -> None:
        if capacity_rows <= 0:
            raise ValueError("capacity must be positive")
        published = np.ascontiguousarray(published, dtype=np.int64)
        if published.size and published.min() < 0:
            raise ValueError("published ids must be non-negative")
        self.capacity_rows = capacity_rows
        self._pub = published
        # Last publish position per key within the advanced prefix.
        key_space = int(published.max()) + 1 if published.size else 1
        self._last_seen = np.full(key_space, -1, dtype=np.int64)
        # live[p]: position p is its key's last publish in the prefix.
        self._live = np.zeros(published.size, dtype=bool)
        self._frontier = np.empty(0, dtype=np.int64)
        self._cursor = 0

    def absorbed(self, prefix_len: int, keys: np.ndarray) -> np.ndarray:
        """Which ``keys`` the shadow buffer would serve after ``prefix_len``
        publishes; returns a boolean mask aligned with ``keys``."""
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        q = int(prefix_len)
        if q < self._cursor:
            raise ValueError("prefix_len must not decrease across calls")
        if q <= 0 or keys.size == 0:
            return np.zeros(keys.size, dtype=bool)
        self._advance(min(q, self._pub.size))
        safe = np.clip(keys, 0, self._last_seen.size - 1)
        last_pos = self._last_seen[safe]
        # Every live position at or after the frontier's first is in it;
        # a frontier below capacity holds every published key.
        full = self._frontier.size == self.capacity_rows
        threshold = self._frontier[0] if full else 0
        return (last_pos >= threshold) & (safe == keys)

    def _advance(self, q: int) -> None:
        """Roll last-seen positions, liveness and the frontier to ``q``."""
        if q <= self._cursor:
            return
        keys = self._pub[self._cursor : q]
        old = self._last_seen[keys]
        self._live[old[old >= 0]] = False
        positions = np.arange(self._cursor, q, dtype=np.int64)
        self._last_seen[keys] = positions
        fresh = positions[self._last_seen[keys] == positions]
        self._live[fresh] = True
        # The new frontier lies in the surviving old one plus the fresh
        # positions, all of them later than any old one.
        kept = self._frontier[self._live[self._frontier]]
        self._frontier = np.concatenate([kept, fresh])[-self.capacity_rows :]
        self._cursor = q

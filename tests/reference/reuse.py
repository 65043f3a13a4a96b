"""The prev-link / histogram shadow-reuse model the incremental LRU
frontier replaced.

A key is pinned after ``q`` publishes exactly when fewer than
``capacity_rows`` distinct keys were published after its own last
publish.  This version answers that with a previous-occurrence link per
publish position (one stable argsort up front) and, per call, a
histogram of the links in the prefix plus its prefix sum: the distinct
keys after position ``p`` are the positions in ``(p, q)`` whose previous
link falls at or before ``p``.
"""

import numpy as np


class PrevLinkShadowReuse:
    """Same interface and decisions as ``repro.hardware.reuse.BatchedShadowReuse``."""

    def __init__(self, published: np.ndarray, capacity_rows: int) -> None:
        if capacity_rows <= 0:
            raise ValueError("capacity must be positive")
        published = np.ascontiguousarray(published, dtype=np.int64)
        if published.size and published.min() < 0:
            raise ValueError("published ids must be non-negative")
        self.capacity_rows = capacity_rows
        n = published.size
        self._n = n
        order = np.argsort(published, kind="stable")
        pk = published[order]
        same = np.empty(n, dtype=bool)
        shifted = np.full(n, -1, dtype=np.int64)
        if n:
            same[0] = False
            same[1:] = pk[1:] == pk[:-1]
            shifted[1:] = order[:-1]
        # Previous occurrence of each publish position (-1 on first).
        self._prev = np.empty(n, dtype=np.int64)
        self._prev[order] = np.where(same, shifted, np.int64(-1))
        self._num_distinct = int(n - same.sum())
        key_space = int(published.max()) + 1 if n else 1
        self._last_seen = np.full(key_space, -1, dtype=np.int64)
        self._pub = published
        # Histogram of previous links in the prefix (shifted by 1 so the
        # -1 "first occurrence" link lands in bin 0), and its prefix sum.
        self._prev_hist = np.zeros(n + 2, dtype=np.int64)
        self._prev_cum = np.zeros(n + 2, dtype=np.int64)
        self._cursor = 0

    def absorbed(self, prefix_len: int, keys: np.ndarray) -> np.ndarray:
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        q = int(prefix_len)
        if q <= 0 or keys.size == 0:
            return np.zeros(keys.size, dtype=bool)
        if q < self._cursor:
            raise ValueError("prefix_len must not decrease across calls")
        q = min(q, self._n)
        self._advance(q)
        safe = np.clip(keys, 0, self._last_seen.size - 1)
        last_pos = self._last_seen[safe]
        published = (last_pos >= 0) & (safe == keys)
        if self._num_distinct <= self.capacity_rows:
            return published
        newer = self._prev_cum[last_pos + 1] - (last_pos + 1)
        return published & (newer < self.capacity_rows)

    def _advance(self, q: int) -> None:
        if q <= self._cursor:
            return
        delta = slice(self._cursor, q)
        self._last_seen[self._pub[delta]] = np.arange(
            self._cursor, q, dtype=np.int64
        )
        self._prev_hist += np.bincount(
            self._prev[delta] + 1, minlength=self._prev_hist.size
        )
        np.cumsum(self._prev_hist[: q + 2], out=self._prev_cum[: q + 2])
        self._cursor = q

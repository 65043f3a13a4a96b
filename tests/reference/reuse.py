"""The shadow-reuse models ``repro.hardware.reuse.BatchedShadowReuse``
replaced.

:class:`ShadowEmbeddingBuffer` is the sequential buffer itself: a bounded,
recency-ordered map from ``(field, row-id)`` to a pinned row, one
``OrderedDict`` operation per key.  :class:`PrevLinkShadowReuse` is the
batched model before the incremental LRU frontier.  A key is pinned after
``q`` publishes exactly when fewer than ``capacity_rows`` distinct keys
were published after its own last publish.  That version answers it with
a previous-occurrence link per publish position (one stable argsort up
front) and, per call, a histogram of the links in the prefix plus its
prefix sum: the distinct keys after position ``p`` are the positions in
``(p, q)`` whose previous link falls at or before ``p``.
"""

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np


@dataclass
class ReuseStats:
    """Trainer-side reuse accounting."""

    reused: int = 0
    fetched: int = 0

    @property
    def total(self) -> int:
        return self.reused + self.fetched

    @property
    def reuse_ratio(self) -> float:
        return self.reused / self.total if self.total else 0.0


class ShadowEmbeddingBuffer:
    """Bounded recency buffer of embedding rows fetched by inference."""

    def __init__(self, capacity_rows: int) -> None:
        if capacity_rows <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_rows = capacity_rows
        self._rows: OrderedDict[tuple[int, int], np.ndarray] = OrderedDict()
        self.stats = ReuseStats()

    def publish(self, field: int, ids: np.ndarray, rows: np.ndarray) -> None:
        """Called by the inference path after each lookup batch."""
        ids = np.asarray(ids, dtype=np.int64)
        for i, row in zip(ids, rows):
            key = (field, int(i))
            if key in self._rows:
                self._rows.move_to_end(key)
            self._rows[key] = row
            while len(self._rows) > self.capacity_rows:
                self._rows.popitem(last=False)

    def lookup(self, field: int, idx: int) -> np.ndarray | None:
        """Trainer-side fetch; returns the pinned row or None on miss."""
        row = self._rows.get((field, int(idx)))
        if row is None:
            self.stats.fetched += 1
            return None
        self.stats.reused += 1
        return row

    def gather(
        self, field: int, ids: np.ndarray, fallback: np.ndarray
    ) -> tuple[np.ndarray, int]:
        """``(rows, num_reused)``: pinned rows where the buffer has them,
        ``fallback`` rows (the DRAM path) on misses."""
        ids = np.asarray(ids, dtype=np.int64)
        out = np.array(fallback, dtype=np.float64, copy=True)
        reused = 0
        for j, i in enumerate(ids):
            row = self._rows.get((field, int(i)))
            if row is not None:
                out[j] = row
                reused += 1
        self.stats.reused += reused
        self.stats.fetched += len(ids) - reused
        return out, reused


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

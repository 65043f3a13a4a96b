"""Inference-log ring buffer and batching utilities.

Section IV-E: "we cache feature IDs and their associated labels from real-time
user requests into a ring buffer with a 10-minute retention window", which
becomes the training set of the inference-side LoRA trainer.  This module
implements that buffer plus helpers to sample training mini-batches from it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .synthetic import Batch

__all__ = ["InferenceLogBuffer"]


@dataclass
class _BatchMeta:
    """Bookkeeping for one appended batch inside the flat window."""

    timestamp: float
    size: int


class InferenceLogBuffer:
    """Time-windowed ring buffer of served (features, label) batches.

    Entries older than ``retention_s`` relative to the newest insert are
    evicted, matching the paper's 10-minute retention window.

    The window lives in flat per-field arrays used as a true ring: an
    append copies one batch in at the tail, wrapping past the end of the
    arrays (at most two slice copies per field), an eviction advances the
    head in O(1), and sampling is one fancy-index per field at
    ``(head + draw) % capacity``.  Live rows are never slid; the arrays are
    reallocated (doubling, live rows unwrapped to the front) only when the
    window plus the incoming batch no longer fits.
    """

    def __init__(self, retention_s: float = 600.0) -> None:
        if retention_s <= 0:
            raise ValueError("retention must be positive")
        self.retention_s = retention_s
        self._meta: deque[_BatchMeta] = deque()
        # Ring storage: the ``_live`` rows starting at ``_start`` (mod
        # capacity) of each array are the window, oldest first.
        self._dense: np.ndarray | None = None
        self._sparse: np.ndarray | None = None
        self._labels: np.ndarray | None = None
        self._start = 0
        self._live = 0
        self.total_appended = 0
        self.total_evicted = 0

    def __len__(self) -> int:
        return self._live

    # ---------------------------------------------------------------- storage
    def _capacity(self) -> int:
        return 0 if self._dense is None else self._dense.shape[0]

    def _unwrap(self, buf: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Copy one ring array's live rows, oldest first, to the front of
        ``out`` (a fresh exact-size array when ``None``)."""
        if out is None:
            out = np.empty((self._live, *buf.shape[1:]), dtype=buf.dtype)
        first = min(self._live, buf.shape[0] - self._start)  # rows before the wrap
        out[:first] = buf[self._start : self._start + first]
        out[first : self._live] = buf[: self._live - first]
        return out

    def _reserve(self, extra: int) -> None:
        """Make room for ``extra`` more rows; reallocates only if the
        window plus ``extra`` exceeds the capacity."""
        need = self._live + extra
        if need <= self._capacity():
            return
        cap = max(2 * need, 1024)
        for name in ("_dense", "_sparse", "_labels"):
            old = getattr(self, name)
            grown = np.empty((cap, *old.shape[1:]), dtype=old.dtype)
            setattr(self, name, self._unwrap(old, out=grown))
        self._start = 0

    def append(self, batch: Batch) -> None:
        """Insert a served batch; evicts anything outside the window."""
        size = batch.size
        if self._dense is None or self._dense.shape[1:] != batch.dense.shape[1:]:
            # First batch, or the feature layout changed: rows of the old
            # layout cannot share the ring, so the window starts over.
            cap = max(4 * size, 1024)
            self._dense = np.empty(
                (cap, *batch.dense.shape[1:]), dtype=batch.dense.dtype
            )
            self._sparse = np.empty(
                (cap, *batch.sparse_ids.shape[1:]), dtype=batch.sparse_ids.dtype
            )
            self._labels = np.empty(
                (cap, *batch.labels.shape[1:]), dtype=batch.labels.dtype
            )
            self.total_evicted += self._live
            self._meta.clear()
            self._start = self._live = 0
        else:
            self._reserve(size)
        cap = self._capacity()
        tail = (self._start + self._live) % cap
        head_room = min(size, cap - tail)  # rows that fit before the wrap
        for buf, rows in (
            (self._dense, batch.dense),
            (self._sparse, batch.sparse_ids),
            (self._labels, batch.labels),
        ):
            buf[tail : tail + head_room] = rows[:head_room]
            buf[: size - head_room] = rows[head_room:]
        self._live += size
        self._meta.append(_BatchMeta(timestamp=batch.timestamp, size=size))
        self.total_appended += size
        self._evict(batch.timestamp)

    def _evict(self, now: float) -> None:
        while self._meta and now - self._meta[0].timestamp > self.retention_s:
            old = self._meta.popleft()
            self._start = (self._start + old.size) % self._capacity()
            self._live -= old.size
            self.total_evicted += old.size

    # --------------------------------------------------------------- sampling
    def sample_minibatch(
        self, batch_size: int, rng: np.random.Generator
    ) -> Batch | None:
        """Uniformly sample ``batch_size`` examples across the window.

        Returns ``None`` when the buffer is empty.  Sampling is with
        replacement across the window, which matches how an online trainer
        re-visits recent traffic.  Each field is gathered with one
        fancy-index over the ring — draw ``k`` of ``rng.integers(0, len)``
        is the window's ``k``-th oldest row wherever the ring has put it.
        """
        if not self._meta:
            return None
        picks = self._start + rng.integers(0, len(self), size=batch_size)
        picks %= self._capacity()
        return Batch(
            timestamp=self._meta[-1].timestamp,
            dense=self._dense.take(picks, axis=0),
            sparse_ids=self._sparse.take(picks, axis=0),
            labels=self._labels.take(picks, axis=0),
        )

"""A list-of-batches oracle for the inference-log ring buffer, and the
whole-table drift step of the synthetic stream."""

import numpy as np


class ListLogBuffer:
    """Keeps whole batches in a list; every read concatenates them."""

    def __init__(self, retention_s: float) -> None:
        self.retention_s = retention_s
        self.batches: list = []
        self.total_evicted = 0

    def __len__(self) -> int:
        return sum(b.size for b in self.batches)

    def append(self, batch) -> None:
        if self.batches and self.batches[0].dense.shape[1:] != batch.dense.shape[1:]:
            self.total_evicted += len(self)
            self.batches = []
        self.batches.append(batch)
        while self.batches and (
            batch.timestamp - self.batches[0].timestamp > self.retention_s
        ):
            self.total_evicted += self.batches.pop(0).size

    def window(self):
        """``(dense, sparse_ids, labels)`` of the window, oldest first."""
        return tuple(
            np.concatenate([getattr(b, name) for b in self.batches])
            for name in ("dense", "sparse_ids", "labels")
        )

    def sample(self, batch_size: int, rng: np.random.Generator):
        picks = rng.integers(0, len(self), size=batch_size)
        return tuple(field[picks] for field in self.window())


def advance_whole_tables(stream, seconds: float) -> None:
    """``DriftingCTRStream.advance`` as it was before its drift step went
    block-wise: one noise draw and one update expression per whole table."""
    cfg = stream.config
    step = np.sqrt(seconds) * cfg.drift_rate
    for f, lat in enumerate(stream._latents):
        noise = stream._rng.normal(0.0, step, size=lat.shape)
        lat += noise - cfg.mean_reversion * seconds * (lat - stream._anchors[f])
    stream.now += seconds
    while stream.now - stream._last_trend >= cfg.trend_interval_s:
        stream._last_trend += cfg.trend_interval_s
        stream._inject_trend()

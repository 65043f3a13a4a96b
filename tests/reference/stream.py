"""A list-of-batches oracle for the inference-log ring buffer."""

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

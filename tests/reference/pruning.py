"""The ``Counter``-based usage tracker the dense count vector replaced."""

from collections import Counter, deque

import numpy as np


class CounterUsageTracker:
    """Sliding-window update counts in a per-id ``Counter``."""

    def __init__(self, window_iters: int) -> None:
        self.window_iters = window_iters
        self._history: deque[np.ndarray] = deque()
        self._counts: Counter[int] = Counter()

    def record_update(self, ids) -> None:
        ids = np.unique(np.asarray(ids, dtype=np.int64))
        self._history.append(ids)
        self._counts.update(int(i) for i in ids)
        while len(self._history) > self.window_iters:
            for i in self._history.popleft():
                i = int(i)
                self._counts[i] -= 1
                if self._counts[i] <= 0:
                    del self._counts[i]

    def frequency(self, idx: int) -> int:
        return self._counts.get(int(idx), 0)

    @property
    def num_tracked(self) -> int:
        return len(self._counts)

    def active_set(self, tau: float) -> np.ndarray:
        ids = [i for i, c in self._counts.items() if c >= tau]
        return np.array(sorted(ids), dtype=np.int64)

    def window_counts(self) -> np.ndarray:
        """Counts of the tracked ids, sorted (the tau histogram)."""
        return np.sort(np.array(list(self._counts.values()), dtype=np.float64))

"""Usage-based LoRA table pruning (Algorithm 1, Section IV-C).

Most embedding ids are updated rarely; allocating an adapter row for each
wastes memory.  LiveUpdate tracks per-id update frequency over a sliding
window of ``T`` iterations, keeps only ids updated at least ``tau_prune``
times (the *active set*), and resizes the LoRA table to
``clamp(|I_active|, C_min, C_max)`` (Eq. 4).

``tau_prune`` can also be derived dynamically: given the access histogram,
pick the frequency at the top-``hot_fraction`` boundary (the paper uses the
top-10% boundary, because those ids absorb ~93.8% of traffic, Fig. 12).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .kernels import is_sorted_unique

__all__ = ["PruneDecision", "UsageTracker", "dynamic_tau_from_counts"]


@dataclass
class PruneDecision:
    """Output of one Algorithm-1 invocation for a single table."""

    active_ids: np.ndarray
    new_capacity: int
    tau_used: float


def dynamic_tau_from_counts(
    counts: np.ndarray, hot_fraction: float = 0.10
) -> float:
    """Frequency at the top-``hot_fraction`` boundary of an access histogram.

    Ids at or above this count are "hot" in the paper's sense; pruning at
    this threshold retains roughly the top 10% of ids.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if counts.size == 0:
        return 1.0
    if not 0 < hot_fraction <= 1:
        raise ValueError("hot_fraction must be in (0, 1]")
    k = max(1, int(round(hot_fraction * counts.size)))
    boundary = np.sort(counts)[::-1][k - 1]
    return float(max(boundary, 1.0))


class UsageTracker:
    """Sliding-window update-frequency tracker for one table.

    Args:
        window_iters: length ``T`` of the sliding window, in iterations.
        tau_prune: static activity threshold (updates per window); ids below
            it are pruned.  May be overridden dynamically per decision.
        c_min: capacity floor (paper default: 1/50 of the full table).
        c_max: capacity ceiling (the full table size).

    The window's per-id counts are one dense ``int32`` vector over the id
    universe — ``c_max`` rows up front, doubled if a larger id ever shows
    up — so recording an iteration and expiring one are a scatter-add
    each, and every query is a vectorized scan; ids are embedding row
    indices and must be non-negative.
    """

    def __init__(
        self,
        window_iters: int,
        tau_prune: float,
        c_min: int,
        c_max: int,
    ) -> None:
        if window_iters <= 0:
            raise ValueError("window must be positive")
        if c_min <= 0 or c_max < c_min:
            raise ValueError("need 0 < c_min <= c_max")
        self.window_iters = window_iters
        self.tau_prune = tau_prune
        self.c_min = c_min
        self.c_max = c_max
        self._history: deque[np.ndarray] = deque()
        self._counts = np.zeros(c_max, dtype=np.int32)
        self.iteration = 0

    # -------------------------------------------------------------- tracking
    def record_update(self, ids: np.ndarray) -> None:
        """Register the ids touched by one training iteration.

        Repeats inside one iteration count once.  A strictly increasing
        array (an already resolved id set) is taken as is; anything else is
        passed through ``np.unique`` first.
        """
        ids = np.asarray(ids, dtype=np.int64)
        # The window keeps the array, so it must not be the caller's.
        ids = ids.copy() if is_sorted_unique(ids) else np.unique(ids)
        if ids.size:
            if ids[0] < 0:
                raise ValueError("ids must be non-negative row indices")
            if ids[-1] >= self._counts.size:
                grown = np.zeros(
                    max(2 * self._counts.size, int(ids[-1]) + 1), dtype=np.int32
                )
                grown[: self._counts.size] = self._counts
                self._counts = grown
        self._history.append(ids)
        self._counts[ids] += 1
        self.iteration += 1
        while len(self._history) > self.window_iters:
            self._counts[self._history.popleft()] -= 1

    @property
    def num_tracked(self) -> int:
        return int(np.count_nonzero(self._counts))

    # -------------------------------------------------------------- decision
    def active_set(self, tau: float | None = None) -> np.ndarray:
        """Ids with ``f_i >= tau`` (Algorithm 1, lines 6-8)."""
        tau = self.tau_prune if tau is None else tau
        # Only ids seen in the window qualify, whatever tau says.
        return np.flatnonzero(self._counts >= max(tau, 1))

    def decide(self) -> PruneDecision:
        """Full Algorithm-1 decision at the current ``tau_prune``: active
        set + clamped capacity (Eq. 4)."""
        tau = self.tau_prune
        active = self.active_set(tau)
        capacity = int(min(max(len(active), self.c_min), self.c_max))
        return PruneDecision(active_ids=active, new_capacity=capacity, tau_used=tau)

    def refresh_tau_from_window(self, hot_fraction: float = 0.10) -> float:
        """Dynamically re-derive tau from the current window's histogram."""
        counts = self._counts[self._counts > 0]
        self.tau_prune = dynamic_tau_from_counts(counts, hot_fraction)
        return self.tau_prune

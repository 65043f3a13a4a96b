"""Variance-aware dynamic rank adaptation (Section IV-C, and the Fig. 6
low-rank analysis).

The intrinsic dimensionality of embedding updates evolves during training, so
LiveUpdate periodically snapshots recent gradients, runs PCA/SVD, and picks
the smallest rank whose leading components capture an ``alpha`` fraction of
total variance (Eq. 2).  The per-interval ranks are then averaged (ceiling)
to smooth transient fluctuations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "cumulative_variance",
    "rank_for_variance",
    "RankMonitor",
]

# Recent observations RankMonitor averages, and the bounds it clamps its
# emitted rank to.
_WINDOW = 8
_MIN_RANK = 2
_MAX_RANK = 64


def _singular_values(grad_matrix: np.ndarray) -> np.ndarray:
    grad_matrix = np.asarray(grad_matrix, dtype=np.float64)
    if grad_matrix.ndim != 2:
        raise ValueError("gradient snapshot must be a 2-D matrix")
    if grad_matrix.shape[0] == 0:
        return np.zeros(0)
    return np.linalg.svd(grad_matrix, compute_uv=False)


def cumulative_variance(grad_matrix: np.ndarray) -> np.ndarray:
    """Cumulative fraction of variance captured by the top-k components.

    ``out[k-1] = sum_{i<=k} sigma_i^2 / sum_j sigma_j^2`` — exactly the
    curves plotted in Fig. 6.
    """
    s = _singular_values(grad_matrix)
    power = s ** 2
    total = power.sum()
    if total == 0:
        return np.ones_like(power)
    return np.cumsum(power) / total


def rank_for_variance(grad_matrix: np.ndarray, alpha: float = 0.8) -> int:
    """Smallest k whose top-k singular values hold >= alpha of the variance."""
    if not 0 < alpha <= 1:
        raise ValueError("alpha must be in (0, 1]")
    cum = cumulative_variance(grad_matrix)
    if cum.size == 0:
        return 1
    k = int(np.searchsorted(cum, alpha - 1e-12) + 1)
    return min(k, cum.size)


@dataclass
class RankMonitor:
    """Tracks per-interval optimal ranks and emits the smoothed global rank.

    Implements ``r = ceil(mean(r_t))`` over the observation window
    (Section IV-C), clamped to ``[_MIN_RANK, _MAX_RANK]``.

    Attributes:
        alpha: variance threshold (paper default 0.8; evaluated up to 0.95).

    The window is the last ``_WINDOW`` observations.
    """

    alpha: float = 0.8
    _observed: list[int] = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        if not 0 < self.alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")

    def observe(self, grad_matrix: np.ndarray) -> int:
        """Record one gradient snapshot; returns its instantaneous rank."""
        r_t = rank_for_variance(grad_matrix, self.alpha)
        self._observed.append(r_t)
        if len(self._observed) > _WINDOW:
            del self._observed[: len(self._observed) - _WINDOW]
        return r_t

    def recommended_rank(self, fallback: int = 8) -> int:
        """Smoothed rank ``ceil(mean(r_t))`` over the window."""
        if not self._observed:
            return int(np.clip(fallback, _MIN_RANK, _MAX_RANK))
        r = math.ceil(sum(self._observed) / len(self._observed))
        return int(np.clip(r, _MIN_RANK, _MAX_RANK))

    def reset(self) -> None:
        self._observed.clear()

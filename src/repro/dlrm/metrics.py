"""Evaluation metrics for CTR prediction.

AUC-ROC is the paper's headline accuracy metric (Table III, Fig. 15).  The
implementation here is exact (rank-statistic form with proper tie handling)
and O(n log n), plus windowed/streaming helpers used by the freshness
experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.kernels import run_starts

__all__ = ["auc_roc", "log_loss", "calibration_ratio", "StreamingAUC"]


def auc_roc(labels: np.ndarray, scores: np.ndarray) -> float:
    """Exact AUC-ROC via the Mann-Whitney U statistic with tie correction.

    Returns ``nan`` when only one class is present (undefined AUC).
    """
    labels = np.asarray(labels, dtype=np.float64).ravel()
    scores = np.asarray(scores, dtype=np.float64).ravel()
    if labels.shape != scores.shape:
        raise ValueError("labels and scores must have the same shape")
    n_pos = float(labels.sum())
    n_neg = float(labels.shape[0] - n_pos)
    if n_pos == 0 or n_neg == 0:
        return float("nan")
    # Midranks handle ties exactly: a run of equal scores at sorted
    # positions i..j shares the rank (i + j) / 2 + 1.
    order = np.argsort(scores, kind="mergesort")
    starts = run_starts(scores[order])
    ends = np.append(starts[1:], scores.shape[0]) - 1
    ranks = np.empty_like(scores)
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    rank_sum_pos = float(ranks[labels > 0.5].sum())
    u = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def log_loss(labels: np.ndarray, scores: np.ndarray, eps: float = 1e-12) -> float:
    """Binary cross-entropy of predicted probabilities."""
    labels = np.asarray(labels, dtype=np.float64).ravel()
    scores = np.clip(np.asarray(scores, dtype=np.float64).ravel(), eps, 1 - eps)
    return float(-(labels * np.log(scores) + (1 - labels) * np.log1p(-scores)).mean())


def calibration_ratio(labels: np.ndarray, scores: np.ndarray) -> float:
    """Mean predicted CTR over empirical CTR; 1.0 is perfectly calibrated."""
    labels = np.asarray(labels, dtype=np.float64).ravel()
    scores = np.asarray(scores, dtype=np.float64).ravel()
    actual = labels.mean()
    if actual == 0:
        return float("inf")
    return float(scores.mean() / actual)


@dataclass
class StreamingAUC:
    """Sliding-window AUC for freshness timelines (Fig. 15's 10-min window).

    Keeps the most recent ``window`` (label, score) pairs; :meth:`value`
    computes the exact AUC over the window.
    """

    window: int = 10_000
    _labels: list[float] = field(default_factory=list)
    _scores: list[float] = field(default_factory=list)

    def update(self, labels: np.ndarray, scores: np.ndarray) -> None:
        self._labels.extend(np.asarray(labels, dtype=float).ravel().tolist())
        self._scores.extend(np.asarray(scores, dtype=float).ravel().tolist())
        if len(self._labels) > self.window:
            drop = len(self._labels) - self.window
            del self._labels[:drop]
            del self._scores[:drop]

    @property
    def count(self) -> int:
        return len(self._labels)

    def value(self) -> float:
        if not self._labels:
            return float("nan")
        return auc_roc(np.array(self._labels), np.array(self._scores))

    def reset(self) -> None:
        self._labels.clear()
        self._scores.clear()

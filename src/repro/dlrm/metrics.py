"""Evaluation metrics for CTR prediction.

AUC-ROC is the paper's headline accuracy metric (Table III, Fig. 15).  The
implementation here is exact (rank-statistic form with proper tie handling)
and O(n log n).
"""

from __future__ import annotations

import numpy as np

from ..core.kernels import run_starts

__all__ = ["auc_roc"]


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

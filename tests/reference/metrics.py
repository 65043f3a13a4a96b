"""The scalar midrank AUC ``repro.dlrm.metrics.auc_roc`` ran before its
run-start rewrite: one Python ``while`` step per sorted score."""

import numpy as np


def auc_roc(labels, scores) -> float:
    labels = np.asarray(labels, dtype=np.float64).ravel()
    scores = np.asarray(scores, dtype=np.float64).ravel()
    n_pos = float(labels.sum())
    n_neg = float(labels.shape[0] - n_pos)
    if n_pos == 0 or n_neg == 0:
        return float("nan")
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty_like(scores)
    sorted_scores = scores[order]
    i = 0
    n = scores.shape[0]
    while i < n:
        j = i
        while j + 1 < n and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    rank_sum_pos = float(ranks[labels > 0.5].sum())
    u = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)

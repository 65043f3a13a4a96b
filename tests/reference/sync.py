"""The dict form of Algorithm 3's merge rules.

``priority_merge`` / ``average_merge`` were the per-index formulation of
the sync merge before ``repro.core.sync`` moved to whole-array merges
(``priority_merge_rows`` / ``average_merge_rows``).  The tests check the
array merges against them.
"""

from __future__ import annotations

import numpy as np


def priority_merge(
    per_rank_values: list[dict[int, np.ndarray]],
) -> dict[int, np.ndarray]:
    """Index ``i`` takes the value from ``max{r | i in S_r}`` (line 11).

    ``per_rank_values[r]`` maps a modified index to the value rank ``r``
    holds for it.
    """
    merged: dict[int, np.ndarray] = {}
    for values in per_rank_values:  # ascending rank order; later overwrites
        for idx, val in values.items():
            merged[idx] = val
    return merged


def average_merge(
    per_rank_values: list[dict[int, np.ndarray]],
) -> dict[int, np.ndarray]:
    """Ablation alternative: average conflicting writes instead of picking a
    winner.  Requires same-shaped values across ranks for a given index."""
    sums: dict[int, np.ndarray] = {}
    counts: dict[int, int] = {}
    for values in per_rank_values:
        for idx, val in values.items():
            if idx in sums and sums[idx].shape == val.shape:
                sums[idx] = sums[idx] + val
                counts[idx] += 1
            else:
                sums[idx] = val.copy()
                counts[idx] = 1
    return {idx: sums[idx] / counts[idx] for idx in sums}

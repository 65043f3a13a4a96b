"""Replica-consistency verification across inference nodes.

Section II-C's third requirement: "the system must guarantee replica
consistency across distributed inference nodes, ensuring identical outputs
for the same inputs."  This module provides the checker production fleets
run as a canary: feed the same probe batch to every replica and compare
predictions, plus parameter-level comparison utilities for diagnosing
where divergence lives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.synthetic import Batch
from ..dlrm.model import DLRM

__all__ = [
    "ConsistencyReport",
    "check_prediction_consistency",
    "parameter_divergence",
]


@dataclass
class ConsistencyReport:
    """Result of one fleet-wide consistency probe."""

    num_replicas: int
    max_prediction_gap: float
    mean_prediction_gap: float
    worst_pair: tuple[int, int]
    consistent: bool

    @property
    def summary(self) -> str:
        status = "CONSISTENT" if self.consistent else "DIVERGED"
        return (
            f"{status}: {self.num_replicas} replicas, "
            f"max gap {self.max_prediction_gap:.2e} "
            f"(pair {self.worst_pair})"
        )

#: Max absolute prediction gap between two consistent replicas.
_TOLERANCE = 1e-9


def check_prediction_consistency(
    models: list[DLRM],
    probe: Batch,
) -> ConsistencyReport:
    """Compare every replica's base-parameter predictions on one probe batch.

    The fleet is consistent when no two replicas' predictions differ by
    more than ``_TOLERANCE``.

    Args:
        models: the fleet's serving replicas.
        probe: a shared input batch.
    """
    if not models:
        raise ValueError("need at least one replica")
    preds = [model.predict(probe.dense, probe.sparse_ids) for model in models]
    max_gap, mean_gap, worst = 0.0, 0.0, (0, 0)
    pairs = 0
    for i in range(len(preds)):
        for j in range(i + 1, len(preds)):
            gap = np.abs(preds[i] - preds[j])
            pairs += 1
            mean_gap += float(gap.mean())
            if gap.max() > max_gap:
                max_gap = float(gap.max())
                worst = (i, j)
    mean_gap = mean_gap / pairs if pairs else 0.0
    return ConsistencyReport(
        num_replicas=len(models),
        max_prediction_gap=max_gap,
        mean_prediction_gap=mean_gap,
        worst_pair=worst,
        consistent=max_gap <= _TOLERANCE,
    )


def parameter_divergence(models: list[DLRM]) -> dict[str, float]:
    """Max pairwise parameter distance per component across the fleet.

    Useful for localising divergence: a fleet can be prediction-consistent
    on hot traffic while cold rows have drifted (eventual consistency).
    """
    if len(models) < 2:
        return {}
    out: dict[str, float] = {}
    num_tables = len(models[0].embeddings)
    for f in range(num_tables):
        worst = 0.0
        for i in range(len(models)):
            for j in range(i + 1, len(models)):
                worst = max(
                    worst,
                    float(
                        np.abs(
                            models[i].embeddings[f].weight
                            - models[j].embeddings[f].weight
                        ).max()
                    ),
                )
        out[f"table_{f}"] = worst
    worst_dense = 0.0
    for i in range(len(models)):
        for j in range(i + 1, len(models)):
            for wa, wb in zip(models[i].bottom.weights, models[j].bottom.weights):
                worst_dense = max(worst_dense, float(np.abs(wa - wb).max()))
            for wa, wb in zip(models[i].top.weights, models[j].top.weights):
                worst_dense = max(worst_dense, float(np.abs(wa - wb).max()))
    out["dense"] = worst_dense
    return out

"""Collective-communication cost models (Gloo-style).

Fig. 19's claim is that LiveUpdate's LoRA synchronization time grows
O(log N) with node count because Gloo's AllGather is tree-based, versus the
O(N) growth of naive all-to-all exchange.  This module provides the
closed-form tree merge and broadcast costs under the standard alpha-beta
(latency-bandwidth) model, plus a helper to fit/extrapolate the
logarithmic trend the paper projects out to 48 nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import NetworkLink, INFINIBAND_EDR

__all__ = [
    "CollectiveCostModel",
    "fit_log_trend",
]


@dataclass(frozen=True)
class CollectiveCostModel:
    """alpha-beta cost model over a given fabric.

    ``alpha`` is per-message latency (seconds); ``beta`` is seconds/byte.
    """

    link: NetworkLink = INFINIBAND_EDR

    @property
    def alpha(self) -> float:
        return self.link.latency_ms / 1e3

    @property
    def beta(self) -> float:
        return 1.0 / self.link.bytes_per_second

    def tree_merge(self, num_nodes: int, merged_bytes: float) -> float:
        """Aggregating tree exchange: O(log N) rounds of ~constant payload.

        LiveUpdate's replicas modify heavily-overlapping hot-id sets, and the
        priority merge deduplicates per index, so the payload at every tree
        level stays close to the merged-update size instead of growing with
        the node count.  That is what produces Fig. 19's logarithmic scaling
        (a plain AllGather is bandwidth-linear in N regardless of topology).
        """
        if num_nodes < 1:
            raise ValueError("need at least one node")
        if num_nodes == 1:
            return 0.0
        rounds = math.ceil(math.log2(num_nodes))
        return rounds * (self.alpha + self.beta * merged_bytes)

    def broadcast_tree(self, num_nodes: int, volume_bytes: float) -> float:
        """Binomial broadcast: ceil(log2 N) full-payload hops."""
        if num_nodes <= 1:
            return 0.0
        rounds = math.ceil(math.log2(num_nodes))
        return rounds * (self.alpha + self.beta * volume_bytes)


def fit_log_trend(
    node_counts: np.ndarray, times: np.ndarray
) -> tuple[float, float]:
    """Least-squares fit of ``t = a + b * log2(N)``.

    Returns ``(a, b)``; used to extrapolate measured sync times to larger
    clusters exactly the way Fig. 19's dashed projection does.
    """
    node_counts = np.asarray(node_counts, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    if node_counts.shape != times.shape or node_counts.size < 2:
        raise ValueError("need matching arrays of at least two points")
    x = np.log2(node_counts)
    design = np.column_stack([np.ones_like(x), x])
    coef, *_ = np.linalg.lstsq(design, times, rcond=None)
    return float(coef[0]), float(coef[1])

"""Gradient low-rank structure analysis (Fig. 6, O2 of the paper).

Trains a DLRM on the live stream, snapshots per-table gradient matrices at
intervals, and reports the cumulative PCA variance curves — reproducing the
observation that a handful of principal components capture >=80% of gradient
variance, with per-table spread (Fig. 6a smallest vs Fig. 6b largest).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.rank_adaptation import cumulative_variance, rank_for_variance
from ..dlrm.optim import RowwiseAdagrad
from .accuracy import TRAIN_BATCH, TRAIN_LR, AccuracyConfig, build_pretrained_world

__all__ = ["GradientSpectrum", "collect_gradient_spectra", "spread_extremes"]


@dataclass
class GradientSpectrum:
    """Cumulative variance curves of one table across training iterations."""

    table: int
    curves: list[np.ndarray]          # one per snapshot iteration
    ranks_at_alpha: list[int]         # Eq. 2 rank per snapshot

    @property
    def rank_spread(self) -> int:
        """Spread between snapshots (Fig. 6's per-table variability)."""
        return max(self.ranks_at_alpha) - min(self.ranks_at_alpha)

    def mean_curve(self) -> np.ndarray:
        length = min(len(c) for c in self.curves)
        return np.mean([c[:length] for c in self.curves], axis=0)


def collect_gradient_spectra(
    config: AccuracyConfig | None = None,
    snapshots: int = 6,
    steps_per_snapshot: int = 20,
) -> list[GradientSpectrum]:
    """Train on the stream, snapshotting gradient PCA curves per table and
    the rank that keeps 80 % of the variance."""
    config = config or AccuracyConfig()
    stream, model = build_pretrained_world(config)
    opt = RowwiseAdagrad(lr=TRAIN_LR)
    num_tables = len(model.embeddings)
    curves: list[list[np.ndarray]] = [[] for _ in range(num_tables)]
    ranks: list[list[int]] = [[] for _ in range(num_tables)]
    for _ in range(snapshots):
        grads_acc: list[list[np.ndarray]] = [[] for _ in range(num_tables)]
        for _ in range(steps_per_snapshot):
            batch = stream.next_batch(TRAIN_BATCH, duration_s=5.0)
            result = model.train_step(
                batch.dense, batch.sparse_ids, batch.labels, opt
            )
            for f, grad in enumerate(result.embedding_grads):
                grads_acc[f].append(grad.rows)
        for f in range(num_tables):
            matrix = np.concatenate(grads_acc[f], axis=0)
            curves[f].append(cumulative_variance(matrix))
            ranks[f].append(rank_for_variance(matrix, 0.8))
    return [
        GradientSpectrum(table=f, curves=curves[f], ranks_at_alpha=ranks[f])
        for f in range(num_tables)
    ]


def spread_extremes(
    spectra: list[GradientSpectrum],
) -> tuple[GradientSpectrum, GradientSpectrum]:
    """The (smallest-spread, largest-spread) tables, as plotted in Fig. 6."""
    ordered = sorted(spectra, key=lambda s: s.rank_spread)
    return ordered[0], ordered[-1]

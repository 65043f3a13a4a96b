"""Freshness characterisation experiments (Fig. 3a, Fig. 3b, Fig. 12).

* :func:`measure_update_ratio` trains a model over N-minute windows and
  reports the fraction of embedding rows touched per window (Fig. 3a).
* :func:`staleness_decay_curve` freezes a trained model and measures AUC as
  the world drifts, with optional periodic refreshes to show the sharp
  recovery of Fig. 3b.
* :func:`access_distribution` produces the access CDF of Fig. 12.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.synthetic import DriftingCTRStream
from ..data.zipf import access_cdf
from ..dlrm.metrics import auc_roc
from ..dlrm.optim import RowwiseAdagrad
from .accuracy import TRAIN_BATCH, TRAIN_LR, AccuracyConfig, build_pretrained_world

__all__ = [
    "UpdateRatioPoint",
    "measure_update_ratio",
    "DecayPoint",
    "staleness_decay_curve",
    "access_distribution",
]


@dataclass
class UpdateRatioPoint:
    """Fraction of embedding rows updated within one training window."""

    window_minutes: float
    window_index: int
    updated_fraction: float


def measure_update_ratio(
    config: AccuracyConfig | None = None,
    window_minutes: tuple[float, ...] = (10.0, 30.0, 60.0),
    windows_per_setting: int = 4,
) -> list[UpdateRatioPoint]:
    """Fig. 3a: % of EMT rows changed over 10/30/60-minute windows, two
    training batches a minute."""
    config = config or AccuracyConfig()
    out: list[UpdateRatioPoint] = []
    for minutes in window_minutes:
        stream, model = build_pretrained_world(config)
        opt = RowwiseAdagrad(lr=TRAIN_LR)
        for w in range(windows_per_setting):
            for table in model.embeddings:
                table.reset_touched()
            for _ in range(int(minutes * 2)):
                batch = stream.next_batch(TRAIN_BATCH, duration_s=30.0)
                model.train_step(batch.dense, batch.sparse_ids, batch.labels, opt)
            out.append(
                UpdateRatioPoint(
                    window_minutes=minutes,
                    window_index=w,
                    updated_fraction=model.embeddings.touched_fraction(),
                )
            )
    return out


@dataclass
class DecayPoint:
    """AUC at a given staleness age."""

    minutes_stale: float
    auc: float
    refreshed: bool


def staleness_decay_curve(
    config: AccuracyConfig | None = None,
    horizon_minutes: float = 60.0,
    step_minutes: float = 5.0,
    refresh_every_minutes: float | None = None,
) -> list[DecayPoint]:
    """Fig. 3b: AUC decay under staleness, with optional refresh recovery.

    Each point is the mean AUC of three 4000-sample evaluation batches.

    With ``refresh_every_minutes`` set, a shadow model trains continuously
    and the serving model adopts it at each refresh — producing the sawtooth
    recovery the paper shows at update points.
    """
    config = config or AccuracyConfig()
    stream, model = build_pretrained_world(config)
    shadow = model.copy()
    opt = RowwiseAdagrad(lr=TRAIN_LR)
    out: list[DecayPoint] = []
    steps = int(horizon_minutes / step_minutes)
    for i in range(1, steps + 1):
        # World drifts; the shadow trainer keeps up.
        batches = max(1, int(step_minutes))
        for _ in range(batches):
            batch = stream.next_batch(
                TRAIN_BATCH, duration_s=step_minutes * 60.0 / batches
            )
            shadow.train_step(batch.dense, batch.sparse_ids, batch.labels, opt)
        refreshed = False
        if refresh_every_minutes is not None:
            elapsed = i * step_minutes
            if elapsed % refresh_every_minutes < step_minutes * 0.5:
                model.load_state_dict(shadow.state_dict())
                refreshed = True
        aucs = []
        for _ in range(3):
            ev = stream.eval_batch(4000)
            aucs.append(auc_roc(ev.labels, model.predict(ev.dense, ev.sparse_ids)))
        out.append(
            DecayPoint(
                minutes_stale=i * step_minutes,
                auc=float(np.mean(aucs)),
                refreshed=refreshed,
            )
        )
    return out


def access_distribution(
    stream: DriftingCTRStream | None = None,
    field: int = 0,
    num_samples: int = 200_000,
) -> tuple[np.ndarray, np.ndarray]:
    """Fig. 12: CDF of embedding accesses vs fraction of sorted indices."""
    if stream is None:
        config = AccuracyConfig()
        stream, _ = build_pretrained_world(config)
    counts = stream.access_counts(field, num_samples=num_samples)
    return access_cdf(counts)

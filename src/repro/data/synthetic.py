"""Non-stationary synthetic CTR stream (the BD-TB stand-in).

The paper's freshness experiments need a workload whose *ground truth* drifts
over minutes: a model frozen at time ``t`` must measurably lose AUC by
``t + minutes`` (Fig. 3b), and applying updates must recover it.  Production
traces with that property are proprietary, so this module implements a
teacher-based generator:

* Each sparse field has a table of *teacher* latent vectors.  They evolve by
  an Ornstein-Uhlenbeck random walk (slow, continuous drift of user/item
  semantics).
* A small set of *trending* ids per window receives large latent jumps and a
  popularity boost — the "emerging trends" whose updates are semantically
  critical but can have small gradient magnitude (the QuickUpdate failure
  mode described in Section II-C).
* Labels are Bernoulli draws from a logistic teacher score combining dense
  features and the (time-varying) latent vectors.

The generator advances in simulated seconds, so experiments can express
"10-minute update window" directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .zipf import ZipfSampler

# Rows per block of the drift step (1 MB of float64 at 8 latent dims).
_DRIFT_BLOCK_ROWS = 16 * 1024

__all__ = ["StreamConfig", "Batch", "DriftingCTRStream"]


@dataclass
class Batch:
    """One timestamped mini-batch of labelled impressions."""

    timestamp: float
    dense: np.ndarray
    sparse_ids: np.ndarray
    labels: np.ndarray

    @property
    def size(self) -> int:
        return int(self.labels.shape[0])


@dataclass
class StreamConfig:
    """Knobs of the drifting CTR process.

    Attributes:
        table_sizes: vocabulary per sparse field (matches the student DLRM).
        num_dense: number of continuous features.
        latent_dim: dimension of teacher latent vectors.
        latent_scale: multiplier on initial latent norms; larger = stronger
            learnable signal relative to label noise.
        zipf_exponent: skew of id popularity.
        drift_rate: OU step scale per simulated second; larger = faster
            staleness decay.
        mean_reversion: OU pull toward the initial latents (keeps the
            process bounded so AUC doesn't collapse over long runs).
        trend_fraction: fraction of each table receiving a trend jump per
            trend event.
        trend_interval_s: seconds between trend events.
        trend_scale: magnitude of a trend jump relative to latent norm.
        base_ctr_logit: intercept controlling the positive rate.
        dense_weight: contribution of dense features to the teacher score.
        local_context_scale: strength of the node-local preference component.
            Production traffic is sharded (region/user segment), so each
            serving node sees a tilted conditional CTR that global training
            never isolates — the signal only inference-side adaptation can
            capture.  Batches drawn with ``local=True`` include it.
        seed: master RNG seed.
    """

    table_sizes: tuple[int, ...] = (2000, 2000, 1000)
    num_dense: int = 4
    latent_dim: int = 8
    latent_scale: float = 2.0
    zipf_exponent: float = 1.4
    drift_rate: float = 0.012
    mean_reversion: float = 2e-5
    trend_fraction: float = 0.03
    trend_interval_s: float = 300.0
    trend_scale: float = 2.5
    base_ctr_logit: float = -1.0
    dense_weight: float = 0.3
    local_context_scale: float = 0.6
    seed: int = 0


class DriftingCTRStream:
    """Generates timestamped batches from a drifting teacher model."""

    def __init__(self, config: StreamConfig) -> None:
        self.config = config
        self._rng = np.random.default_rng(config.seed)
        self.now = 0.0
        self._last_trend = 0.0
        k = config.latent_dim
        self._latents = [
            config.latent_scale
            * self._rng.normal(0.0, 1.0, size=(size, k))
            / np.sqrt(k)
            for size in config.table_sizes
        ]
        self._anchors = [lat.copy() for lat in self._latents]
        self._dense_proj = self._rng.normal(size=(config.num_dense,))
        # Field latents interact through a shared context vector so that
        # cross-field structure exists for the student to learn.
        self._context = self._rng.normal(0.0, 1.0, size=k) / np.sqrt(k)
        # Node-local preference direction (see StreamConfig.local_context_scale).
        self._local_context = (
            config.local_context_scale
            * self._rng.normal(0.0, 1.0, size=k)
            / np.sqrt(k)
        )
        self._samplers = [
            ZipfSampler(size, config.zipf_exponent, rng=self._rng)
            for size in config.table_sizes
        ]
        self.trend_log: list[tuple[float, int, np.ndarray]] = []

    # ------------------------------------------------------------- evolution
    def advance(self, seconds: float) -> None:
        """Evolve the teacher by ``seconds`` of simulated time."""
        if seconds < 0:
            raise ValueError("cannot advance backwards")
        cfg = self.config
        step = np.sqrt(seconds) * cfg.drift_rate
        pull = cfg.mean_reversion * seconds
        # Row blocks, in place: the draws and the arithmetic are those of
        # one whole-table step, with no table-sized temporaries.
        for lat, anchor in zip(self._latents, self._anchors):
            for lo in range(0, lat.shape[0], _DRIFT_BLOCK_ROWS):
                rows = lat[lo : lo + _DRIFT_BLOCK_ROWS]
                noise = self._rng.normal(0.0, step, size=rows.shape)
                back = rows - anchor[lo : lo + _DRIFT_BLOCK_ROWS]
                back *= pull
                noise -= back
                rows += noise
        self.now += seconds
        while self.now - self._last_trend >= cfg.trend_interval_s:
            self._last_trend += cfg.trend_interval_s
            self._inject_trend()

    def _inject_trend(self) -> None:
        """Give a random slice of ids an abrupt semantic jump."""
        cfg = self.config
        for f, lat in enumerate(self._latents):
            n_trend = max(1, int(cfg.trend_fraction * lat.shape[0]))
            ids = self._rng.choice(lat.shape[0], size=n_trend, replace=False)
            jump = self._rng.normal(
                0.0, cfg.trend_scale / np.sqrt(cfg.latent_dim), size=(n_trend, lat.shape[1])
            )
            lat[ids] += jump
            self.trend_log.append((self.now, f, ids))

    # -------------------------------------------------------------- sampling
    def teacher_logits(
        self, dense: np.ndarray, sparse_ids: np.ndarray, local: bool = False
    ) -> np.ndarray:
        """Ground-truth logit for given features at the current time.

        ``local=True`` adds the node-local preference component present in
        this serving node's traffic shard.
        """
        cfg = self.config
        score = np.full(dense.shape[0], cfg.base_ctr_logit, dtype=np.float64)
        score += cfg.dense_weight * (dense @ self._dense_proj)
        # Sum of latent dot products with the context plus pairwise field
        # interactions (first field against the rest).
        vecs = [lat[sparse_ids[:, f]] for f, lat in enumerate(self._latents)]
        for v in vecs:
            score += v @ self._context
            if local:
                score += v @ self._local_context
        for other in vecs[1:]:
            score += (vecs[0] * other).sum(axis=1)
        return score

    def next_batch(
        self, batch_size: int, duration_s: float = 0.0, local: bool = False
    ) -> Batch:
        """Sample one batch, then advance time by ``duration_s``.

        The batch is stamped with the time at which it was drawn.
        ``local=True`` draws from this node's traffic shard (see
        :attr:`StreamConfig.local_context_scale`).
        """
        cfg = self.config
        dense = self._rng.normal(size=(batch_size, cfg.num_dense))
        sparse = np.column_stack(
            [s.sample(batch_size) for s in self._samplers]
        ).astype(np.int64)
        logits = self.teacher_logits(dense, sparse, local=local)
        probs = 1.0 / (1.0 + np.exp(-logits))
        labels = (self._rng.random(batch_size) < probs).astype(np.float64)
        batch = Batch(
            timestamp=self.now, dense=dense, sparse_ids=sparse, labels=labels
        )
        if duration_s:
            self.advance(duration_s)
        return batch

    def eval_batch(self, batch_size: int, local: bool = False) -> Batch:
        """Sample a batch without advancing time (held-out evaluation)."""
        return self.next_batch(batch_size, duration_s=0.0, local=local)

    # ------------------------------------------------------------- utilities
    def access_counts(self, field: int, num_samples: int = 200_000) -> np.ndarray:
        """Monte-Carlo access histogram for one field (Fig. 12 input)."""
        ids = self._samplers[field].sample(num_samples)
        return np.bincount(ids, minlength=self.config.table_sizes[field])

"""Inference-side LoRA trainer (Fig. 7, online update path).

The trainer lives inside an inference node.  At a fixed cadence it samples
mini-batches from the inference-log ring buffer, runs a forward pass *through
the adapted embeddings* (``W_base + A B``), backpropagates only into the
LoRA factors (base weights and dense layers stay frozen), and applies the
dynamic rank / pruning controllers every ``adapt_interval`` iterations.

The step is a *frozen-base* step: the backward pass runs with
``dense_grads=False`` (no MLP parameter gradients, no bottom-MLP backward),
and each field's ids are resolved once — the backward's sorted unique ids
and their summed gradient rows — for all three consumers: the adapter
update, the usage tracker and the
:class:`~repro.core.hot_index.HotIndexFilter`, which tells the serving path
which lookups need the LoRA adjustment.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..data.stream import InferenceLogBuffer
from ..dlrm.model import DLRM
from .hot_index import HotIndexFilter
from .lora import LoRACollection
from .pruning import UsageTracker
from .rank_adaptation import RankMonitor

__all__ = ["TrainerConfig", "TrainerReport", "LoRATrainer"]

# Mini-batch size one training step samples from the ring buffer.
BATCH_SIZE = 256
# Max gradient rows kept per field for the Algorithm-1 PCA snapshot.
_GRAD_SNAPSHOT_ROWS = 512
# Least rank difference a resize needs (see TrainerConfig).
_RANK_HYSTERESIS = 2


@dataclass
class TrainerConfig:
    """Hyper-parameters of the online trainer.

    Attributes:
        rank: initial LoRA rank.
        lr: learning rate for A/B factors.
        adapt_interval: iterations between Algorithm-1 invocations.
        alpha: PCA variance threshold for rank adaptation (Eq. 2).
        dynamic_rank: disable to keep ``rank`` fixed (the LiveUpdate-8 /
            LiveUpdate-16/64 ablations of Table III).
        dynamic_prune: disable to keep every slot allocated.  Pruning
            re-derives its threshold from the live access histogram so it
            tracks the top-``hot_fraction`` boundary (Section IV-C's tau
            maintenance).
        hot_fraction: boundary for the dynamic threshold (paper: top 10%).
        capacity_fraction: initial LoRA capacity as a fraction of each
            table (paper initialises at 10%).
        tau_prune: initial pruning threshold.
        seed: RNG seed for buffer sampling.

    Rank changes are applied asymmetrically: *growth* happens immediately
    (extra directions are needed to capture the updates), while *shrink*
    decisions are deferred to the next adapter reset (hourly merge/full
    sync), because truncating a live adapter measurably and persistently
    costs accuracy, whereas shrinking an empty one is free.  Either way a
    resize needs the recommended rank to differ from the current one by
    ``_RANK_HYSTERESIS``: resizing re-orients the shared ``B`` factors,
    which costs accumulated adaptation, so chasing +-1 fluctuations is a
    net loss (the paper's averaging over the interval serves the same
    smoothing purpose).
    """

    rank: int = 8
    lr: float = 0.05
    adapt_interval: int = 32
    alpha: float = 0.8
    dynamic_rank: bool = True
    dynamic_prune: bool = True
    hot_fraction: float = 0.10
    capacity_fraction: float = 0.10
    tau_prune: float = 2.0
    seed: int = 0


@dataclass
class TrainerReport:
    """Rolling counters exposed for experiments."""

    steps: int = 0
    samples_seen: int = 0
    rows_updated: int = 0
    rank_changes: int = 0
    prune_events: int = 0
    train_seconds: float = 0.0
    current_ranks: list[int] = field(default_factory=list)
    current_capacities: list[int] = field(default_factory=list)


class LoRATrainer:
    """Trains LoRA adapters against a frozen serving model."""

    def __init__(
        self,
        model: DLRM,
        buffer: InferenceLogBuffer,
        config: TrainerConfig | None = None,
    ) -> None:
        self.model = model
        self.buffer = buffer
        self.config = config or TrainerConfig()
        cfg = self.config
        dims = [t.dim for t in model.embeddings]
        capacities = [
            max(8, int(cfg.capacity_fraction * t.num_rows))
            for t in model.embeddings
        ]
        self.lora = LoRACollection(
            dims,
            cfg.rank,
            capacities,
            seed=cfg.seed,
            universes=[t.num_rows for t in model.embeddings],
            dtype=model.config.dtype,
        )
        # ids here are embedding row indices: one hot bit per table row
        self.hot_filter = HotIndexFilter([t.num_rows for t in model.embeddings])
        self.rank_monitors = [RankMonitor(alpha=cfg.alpha) for _ in dims]
        self.usage = [
            UsageTracker(
                window_iters=128,
                tau_prune=cfg.tau_prune,
                # capacity floor: 1/50 of the table
                c_min=max(4, int(0.02 * t.num_rows)),
                c_max=t.num_rows,
            )
            for t in model.embeddings
        ]
        self._grad_snapshots: list[deque[np.ndarray]] = [
            deque(maxlen=8) for _ in dims
        ]
        self._pending_shrink: dict[int, int] = {}
        # Per field, the sorted unique ids the latest step updated (what a
        # synchronizer adds to this rank's support set).
        self.last_update_ids: list[np.ndarray] = [
            np.empty(0, dtype=np.int64) for _ in dims
        ]
        self._rng = np.random.default_rng(cfg.seed)
        self.report = TrainerReport(
            current_ranks=[cfg.rank] * len(dims),
            current_capacities=list(capacities),
        )

    # ------------------------------------------------------------- inference
    def overlay(self):
        """Embedding overlay for the serving path (hot ids only)."""
        return self.lora.overlay(hot_filter=self.hot_filter)

    # -------------------------------------------------------------- training
    def train_step(self) -> float | None:
        """One mini-batch step from the ring buffer; returns the loss.

        Returns ``None`` when the buffer has no data yet.
        """
        batch = self.buffer.sample_minibatch(BATCH_SIZE, self._rng)
        if batch is None:
            return None
        return self.train_on(batch.dense, batch.sparse_ids, batch.labels)

    def train_on(
        self, dense: np.ndarray, sparse_ids: np.ndarray, labels: np.ndarray
    ) -> float:
        """Train the adapters on an explicit batch (testing hook)."""
        cfg = self.config
        start = time.perf_counter()
        cache = self.model.forward(
            dense, sparse_ids, overlay=self.lora.overlay()
        )
        result = self.model.backward(cache, labels, dense_grads=False)
        for f, grad in enumerate(result.embedding_grads):
            # grad.indices is sorted and unique: every consumer below
            # takes it as is, none re-resolves it.
            self.report.rows_updated += self.lora[f].accumulate_grad(
                grad.indices, grad.rows, cfg.lr
            )
            self.usage[f].record_update(grad.indices)
            self.hot_filter.mark(f, grad.indices)
            self.last_update_ids[f] = grad.indices
            self._grad_snapshots[f].append(
                grad.rows[:_GRAD_SNAPSHOT_ROWS]
            )
        self.report.steps += 1
        self.report.samples_seen += int(labels.shape[0])
        if self.report.steps % cfg.adapt_interval == 0:
            self._adapt()
        self.report.train_seconds += time.perf_counter() - start
        return result.loss

    # ------------------------------------------------------------ adaptation
    def _gradient_snapshot(self, field: int) -> np.ndarray:
        rows = list(self._grad_snapshots[field])
        if not rows:
            table = self.model.embeddings[field]
            return np.zeros((0, table.dim), dtype=table.dtype)
        snap = np.concatenate(rows, axis=0)
        return snap[-_GRAD_SNAPSHOT_ROWS:]

    def _adapt(self) -> None:
        """Algorithm 1: rank adaptation + usage-based pruning per table."""
        cfg = self.config
        for f, adapter in enumerate(self.lora):
            if cfg.dynamic_rank:
                snap = self._gradient_snapshot(f)
                if snap.shape[0] >= 2:
                    self.rank_monitors[f].observe(snap)
                    new_rank = self.rank_monitors[f].recommended_rank(
                        fallback=adapter.rank
                    )
                    if new_rank >= adapter.rank + _RANK_HYSTERESIS:
                        adapter.resize_rank(new_rank)
                        self._pending_shrink.pop(f, None)
                        self.report.rank_changes += 1
                    elif new_rank <= adapter.rank - _RANK_HYSTERESIS:
                        self._pending_shrink[f] = new_rank
                    self.report.current_ranks[f] = adapter.rank
            if cfg.dynamic_prune:
                if self.usage[f].num_tracked:
                    self.usage[f].refresh_tau_from_window(cfg.hot_fraction)
                decision = self.usage[f].decide()
                stale = np.setdiff1d(
                    adapter.active_ids, decision.active_ids, assume_unique=True
                )
                adapter.deactivate_batch(stale)
                if decision.new_capacity != adapter.capacity:
                    adapter.resize_capacity(decision.new_capacity)
                    self.report.prune_events += 1
                self.report.current_capacities[f] = adapter.capacity

    # --------------------------------------------------------------- merging
    def merge_and_reset(self) -> int:
        """Fold all adapters into the base tables (pre-full-sync step).

        Returns the total number of merged rows.  Also clears the hot filter
        because post-merge, base rows already carry the update.
        """
        merged = 0
        for f, adapter in enumerate(self.lora):
            merged += adapter.merge_into(self.model.embeddings[f].weight)
            pending = self._pending_shrink.pop(f, None)
            if pending is not None and pending < adapter.rank:
                adapter.resize_rank(pending)  # free: the adapter is empty
                self.report.rank_changes += 1
                self.report.current_ranks[f] = adapter.rank
        self.hot_filter.clear()
        return merged

    def memory_bytes(self) -> int:
        """Current adapter footprint (Fig. 17's metric)."""
        return self.lora.nbytes

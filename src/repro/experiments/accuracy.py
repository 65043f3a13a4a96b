"""Accuracy-timeline experiment harness (Table III, Fig. 15, Fig. 3b).

Drives all update strategies through an identical simulated serving horizon:

* a *training cluster* trains its replica on every fresh batch;
* an *inference node* serves traffic with (possibly stale) parameters;
* every ``SLOT_S`` seconds the world drifts and one serve/train round runs;
* every ``update_interval_s`` the strategy performs its update action;
* every ``full_sync_interval_s`` the hourly full-parameter re-anchor fires.

Because each strategy is driven by a freshly seeded but identically
sequenced stream, the served/evaluated batches are bit-identical across
strategies — AUC differences are attributable to the update policy alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..cluster.nodes import InferenceNode, TrainingCluster
from ..cluster.shardstore import ShardedParameterStore
from ..core.dtypes import ROW_DTYPE
from ..data.synthetic import DriftingCTRStream, StreamConfig
from ..dlrm.metrics import auc_roc
from ..dlrm.model import DLRM, DLRMConfig
from ..dlrm.optim import RowwiseAdagrad
from ..strategies.base import UpdateStrategy

__all__ = [
    "AccuracyConfig",
    "TimelinePoint",
    "StrategyRun",
    "build_pretrained_world",
    "run_strategy",
    "run_comparison",
    "auc_improvement_table",
]

# The fixed shape of every accuracy experiment: row width, simulated slot
# length, per-slot train and serve batch sizes, and the learning rate of
# pre-training and of the training cluster.
EMBEDDING_DIM = 16
SLOT_S = 30.0
TRAIN_BATCH = 256
SERVE_BATCH = 512
TRAIN_LR = 0.05


@dataclass
class AccuracyConfig:
    """Shared settings of one accuracy experiment.

    Defaults give a ~1-hour horizon with 10-minute update windows, matching
    Table III's setup; Fig. 15 uses a 2-hour horizon with 5-minute windows.
    """

    table_sizes: tuple[int, ...] = (2000, 2000, 1000)
    num_dense: int = 4
    horizon_s: float = 3600.0
    update_interval_s: float = 600.0
    full_sync_interval_s: float = 3600.0
    pretrain_steps: int = 300
    seed: int = 0
    dtype: np.dtype = ROW_DTYPE  # row dtype of the models and the store


@dataclass
class TimelinePoint:
    """One sliding-window AUC observation."""

    time_s: float
    auc: float


@dataclass
class StrategyRun:
    """Complete result of one strategy over the horizon."""

    name: str
    timeline: list[TimelinePoint]
    mean_auc: float
    update_seconds: float
    bytes_moved: float


def _make_stream(config: AccuracyConfig) -> DriftingCTRStream:
    return DriftingCTRStream(
        StreamConfig(
            table_sizes=config.table_sizes,
            num_dense=config.num_dense,
            seed=config.seed,
        )
    )


def _make_model(config: AccuracyConfig) -> DLRM:
    return DLRM(
        DLRMConfig(
            num_dense=config.num_dense,
            embedding_dim=EMBEDDING_DIM,
            table_sizes=config.table_sizes,
            bottom_mlp=(32,),
            top_mlp=(64, 32),
            seed=config.seed,
            dtype=config.dtype,
        )
    )


def build_pretrained_world(
    config: AccuracyConfig,
) -> tuple[DriftingCTRStream, DLRM]:
    """Pretrain the Day-1 checkpoint all strategies start from.

    Returns a stream positioned at the end of pre-training and the trained
    model (the shared "model version 0" of Fig. 8).
    """
    stream = _make_stream(config)
    model = _make_model(config)
    opt = RowwiseAdagrad(lr=TRAIN_LR)
    for _ in range(config.pretrain_steps):
        batch = stream.next_batch(TRAIN_BATCH, duration_s=1.0)
        model.train_step(batch.dense, batch.sparse_ids, batch.labels, opt)
    for table in model.embeddings:
        table.reset_touched()
    return stream, model


# A strategy factory receives the freshly built actors and returns the
# strategy to exercise.
StrategyFactory = Callable[[TrainingCluster, InferenceNode], UpdateStrategy]


def run_strategy(
    config: AccuracyConfig, factory: StrategyFactory
) -> StrategyRun:
    """Run one strategy over the full horizon.

    The world (stream + Day-1 model) is rebuilt from the config seed, so
    every strategy sees the same data in the same order.
    """
    stream, base_model = build_pretrained_world(config)
    server = ShardedParameterStore(
        num_shards=8,
        row_bytes=None,
        row_dim=EMBEDDING_DIM,
        row_dtype=config.dtype,
    )
    trainer_cluster = TrainingCluster(
        base_model.copy(), server, lr=TRAIN_LR
    )
    node = InferenceNode(base_model.copy(), server)
    strategy = factory(trainer_cluster, node)

    slots = int(config.horizon_s / SLOT_S)
    slots_per_update = max(1, int(config.update_interval_s / SLOT_S))
    slots_per_full = max(1, int(config.full_sync_interval_s / SLOT_S))
    window_labels: list[np.ndarray] = []
    window_scores: list[np.ndarray] = []
    timeline: list[TimelinePoint] = []

    for slot in range(1, slots + 1):
        now = slot * SLOT_S
        # The training cluster ingests the freshest *global* interactions.
        train_batch = stream.next_batch(TRAIN_BATCH)
        trainer_cluster.train_on(train_batch)
        # The node serves (and is scored on) its local traffic shard.
        serve_batch = stream.next_batch(SERVE_BATCH, local=True)
        probs = node.predict(serve_batch, overlay=strategy.overlay())
        strategy.on_serving_batch(serve_batch)
        window_labels.append(serve_batch.labels)
        window_scores.append(probs)
        if len(window_labels) > 6:  # slots per sliding AUC window
            window_labels.pop(0)
            window_scores.pop(0)
        auc = auc_roc(
            np.concatenate(window_labels), np.concatenate(window_scores)
        )
        timeline.append(TimelinePoint(time_s=now, auc=auc))
        strategy.on_slot(now)
        stream.advance(SLOT_S)
        if slot % slots_per_update == 0:
            strategy.on_update_window(now)
        if slot % slots_per_full == 0 and slot != slots:
            strategy.on_full_sync(now)

    valid = [p.auc for p in timeline if not np.isnan(p.auc)]
    return StrategyRun(
        name=strategy.name,
        timeline=timeline,
        mean_auc=float(np.mean(valid)) if valid else float("nan"),
        update_seconds=strategy.total_update_seconds,
        bytes_moved=strategy.total_bytes_moved,
    )


def run_comparison(
    config: AccuracyConfig, factories: dict[str, StrategyFactory]
) -> dict[str, StrategyRun]:
    """Run several strategies under identical conditions."""
    return {name: run_strategy(config, f) for name, f in factories.items()}


def auc_improvement_table(runs: dict[str, StrategyRun]) -> dict[str, float]:
    """Mean-AUC delta versus DeltaUpdate, in percentage points (Table III)."""
    if "DeltaUpdate" not in runs:
        raise KeyError("baseline 'DeltaUpdate' missing from runs")
    base = runs["DeltaUpdate"].mean_auc
    return {
        name: (run.mean_auc - base) * 100.0 for name, run in runs.items()
    }

"""LoRA sync-interval sensitivity (Fig. 9) and scalability (Fig. 19).

Fig. 9: multiple inference nodes train LoRA replicas on disjoint traffic
shards; syncing less often leaves each replica blind to the others' updates,
opening an accuracy gap versus a tightly synchronized fleet.

Fig. 19: synchronization time versus node count under the tree AllGather
cost model, with the paper's log-trend projection to 48 nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cluster.collectives import CollectiveCostModel, fit_log_trend
from ..cluster.network import INFINIBAND_EDR
from ..core.sync import SparseLoRASynchronizer
from ..core.trainer import LoRATrainer, TrainerConfig
from ..data.stream import InferenceLogBuffer
from ..dlrm.metrics import auc_roc
from .accuracy import AccuracyConfig, build_pretrained_world

__all__ = [
    "SyncIntervalResult",
    "sync_interval_sweep",
    "ScalabilityPoint",
    "scalability_curve",
]


@dataclass
class SyncIntervalResult:
    """Mean fleet AUC under one synchronization interval."""

    sync_interval: int
    mean_auc: float
    sync_rounds: int
    total_sync_seconds: float


def _fleet_auc(sync: SparseLoRASynchronizer, stream, eval_batch: int) -> float:
    """Average per-rank AUC on the shared (local) evaluation stream."""
    ev = stream.next_batch(eval_batch, local=True)
    aucs = []
    for trainer in sync.trainers:
        probs = trainer.model.predict(
            ev.dense, ev.sparse_ids, overlay=trainer.overlay()
        )
        aucs.append(auc_roc(ev.labels, probs))
    return float(np.mean(aucs))


def sync_interval_sweep(
    intervals: tuple[int, ...] = (4, 16, 64, 256),
    num_ranks: int = 4,
    total_steps: int = 256,
    config: AccuracyConfig | None = None,
) -> list[SyncIntervalResult]:
    """Fig. 9: accuracy gap as a function of the LoRA sync interval.

    Each rank trains on its own slice of traffic (disjoint batches), so a
    rank only learns about ids it served — until a sync round shares them.
    """
    config = config or AccuracyConfig()
    results: list[SyncIntervalResult] = []
    for interval in intervals:
        stream, base_model = build_pretrained_world(config)
        trainers = []
        for r in range(num_ranks):
            buf = InferenceLogBuffer(retention_s=600.0)
            trainers.append(
                LoRATrainer(
                    base_model.copy(),
                    buf,
                    TrainerConfig(
                        rank=8,
                        lr=0.25,
                        dynamic_rank=False,
                        dynamic_prune=False,
                        seed=r,
                    ),
                )
            )
        sync = SparseLoRASynchronizer(trainers, sync_interval=interval)
        for step in range(total_steps):
            batches = []
            for _ in range(num_ranks):
                b = stream.next_batch(128, local=True)
                batches.append((b.dense, b.sparse_ids, b.labels))
            sync.step_all(batches)
            stream.advance(5.0)
        results.append(
            SyncIntervalResult(
                sync_interval=interval,
                mean_auc=_fleet_auc(sync, stream, eval_batch=4000),
                sync_rounds=sync.rounds,
                total_sync_seconds=sum(r.total_seconds for r in sync.reports),
            )
        )
    return results


@dataclass
class ScalabilityPoint:
    """Sync time at one cluster size (Fig. 19)."""

    num_nodes: int
    sync_seconds: float
    projected: bool


def scalability_curve() -> list[ScalabilityPoint]:
    """Fig. 19: merging-tree sync time vs node count + log projection.

    2, 4, 8 and 16 nodes are modelled and 24, 32 and 48 projected from
    their log trend.  Each sync exchanges a 2 GiB deduplicated LoRA delta
    (the hot-id overlap across replicas keeps it roughly
    node-count-independent); the per-window training time includes 60
    sync rounds.
    """
    cost = CollectiveCostModel(INFINIBAND_EDR)
    measured_nodes = (2, 4, 8, 16)
    points = [
        ScalabilityPoint(
            num_nodes=n,
            sync_seconds=60 * cost.tree_merge(n, 2.0 * 1024 ** 3),
            projected=False,
        )
        for n in measured_nodes
    ]
    xs = np.array(measured_nodes, dtype=float)
    ys = np.array([p.sync_seconds for p in points])
    intercept, slope = fit_log_trend(xs, ys)
    for n in (24, 32, 48):
        points.append(
            ScalabilityPoint(
                num_nodes=n,
                sync_seconds=intercept + slope * np.log2(n),
                projected=True,
            )
        )
    return points

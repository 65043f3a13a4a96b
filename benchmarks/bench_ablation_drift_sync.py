"""Ablation — fixed hourly full sync vs drift-triggered adaptive sync.

The paper re-anchors serving replicas on a fixed hourly schedule to bound
model drift (Fig. 8).  The natural extension is to measure drift directly
and sync only when it matters.  This bench compares the two policies on the
same serving horizon: the adaptive policy should match (or beat) fixed-sync
accuracy while spending no more full-sync bandwidth.
"""

import numpy as np

from repro.cluster.nodes import InferenceNode, TrainingCluster
from repro.cluster.shardstore import ShardedParameterStore
from repro.core.drift import AdaptiveSyncPolicy, DriftMonitor
from repro.core.liveupdate import LiveUpdate, LiveUpdateConfig
from repro.core.trainer import TrainerConfig
from repro.dlrm.metrics import auc_roc
from repro.experiments.accuracy import (
    EMBEDDING_DIM,
    SERVE_BATCH,
    SLOT_S,
    TRAIN_BATCH,
    AccuracyConfig,
    build_pretrained_world,
)
from repro.experiments.reporting import banner, format_table


def _run(policy: str, config: AccuracyConfig):
    stream, base_model = build_pretrained_world(config)
    server = ShardedParameterStore(row_bytes=EMBEDDING_DIM * 8)
    cluster = TrainingCluster(base_model.copy(), server)
    node = InferenceNode(base_model.copy(), server)
    live = LiveUpdate(
        node,
        trainer_cluster=cluster,
        trainer_config=TrainerConfig(rank=8, lr=0.25, dynamic_rank=False),
        config=LiveUpdateConfig(steps_per_slot=4),
    )
    monitor = DriftMonitor(node.model)
    adaptive = AdaptiveSyncPolicy(
        drift_threshold=8.0, max_interval_s=3600.0, min_interval_s=600.0
    )
    aucs, syncs = [], 0
    slots = int(config.horizon_s / SLOT_S)
    for slot in range(1, slots + 1):
        now = slot * SLOT_S
        cluster.train_on(stream.next_batch(TRAIN_BATCH))
        serve = stream.next_batch(SERVE_BATCH, local=True)
        probs = node.predict(serve, overlay=live.overlay())
        aucs.append(auc_roc(serve.labels, probs))
        live.on_serving_batch(serve)
        live.on_slot(now)
        stream.advance(SLOT_S)
        sample = monitor.observe(
            now, node.model, lora_collection=live.trainer.lora, reference=cluster.model
        )
        if policy == "fixed":
            fire = now % 3600.0 == 0 and slot != slots
        else:
            fire = adaptive.should_sync(now, sample) and slot != slots
        if fire:
            live.on_full_sync(now)
            monitor.re_anchor(node.model)
            adaptive.mark_synced(now)
            syncs += 1
    valid = [a for a in aucs if not np.isnan(a)]
    return float(np.mean(valid)), syncs


def test_ablation_drift_triggered_sync(once):
    config = AccuracyConfig(horizon_s=5400.0, update_interval_s=600.0)

    def run():
        return {p: _run(p, config) for p in ("fixed", "adaptive")}

    results = once(run)
    rows = [
        [policy, f"{auc:.4f}", syncs]
        for policy, (auc, syncs) in results.items()
    ]
    print(banner("Ablation: fixed hourly vs drift-triggered full sync"))
    print(format_table(["policy", "mean AUC", "full syncs"], rows))

    fixed_auc, fixed_syncs = results["fixed"]
    adaptive_auc, adaptive_syncs = results["adaptive"]
    # adaptive must not lose meaningful accuracy
    assert adaptive_auc > fixed_auc - 0.01
    # and both policies actually fired
    assert fixed_syncs >= 1
    assert adaptive_syncs >= 1

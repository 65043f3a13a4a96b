"""Quickstart: staleness hurts, inference-side LoRA updates fix it.

Builds a DLRM, trains it on a drifting CTR stream, lets it go stale, then
attaches a LiveUpdate trainer that adapts the serving replica from its own
traffic — no parameter-server pull involved.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.core import LiveUpdate, LiveUpdateConfig, TrainerConfig
from repro.cluster import InferenceNode, ShardedParameterStore
from repro.data import DriftingCTRStream, StreamConfig
from repro.dlrm import DLRM, DLRMConfig, RowwiseAdagrad, auc_roc

TABLE_SIZES = (2000, 2000, 1000)


def evaluate(node, stream, overlay=None, repeats=3):
    """Mean AUC on the node's local traffic shard."""
    scores = []
    for _ in range(repeats):
        batch = stream.eval_batch(4000, local=True)
        probs = node.predict(batch, overlay=overlay)
        scores.append(auc_roc(batch.labels, probs))
    return float(np.mean(scores))


def main():
    # 1. A drifting world and a DLRM trained on it ("Day-1 checkpoint").
    stream = DriftingCTRStream(
        StreamConfig(table_sizes=TABLE_SIZES, num_dense=4, seed=7)
    )
    model = DLRM(
        DLRMConfig(
            num_dense=4,
            embedding_dim=16,
            table_sizes=TABLE_SIZES,
            bottom_mlp=(32,),
            top_mlp=(64, 32),
            seed=0,
        )
    )
    optimizer = RowwiseAdagrad(lr=0.05)
    print("pre-training the Day-1 checkpoint ...")
    for _ in range(300):
        batch = stream.next_batch(256, duration_s=1.0)
        model.train_step(batch.dense, batch.sparse_ids, batch.labels, optimizer)

    # 2. Deploy it on an inference node and measure fresh accuracy.
    node = InferenceNode(model.copy(), ShardedParameterStore())
    fresh = evaluate(node, stream)
    print(f"fresh AUC:                 {fresh:.4f}")

    # 3. The world drifts for 45 minutes; the model goes stale.
    stream.advance(2700.0)
    stale = evaluate(node, stream)
    print(f"stale AUC (45 min later):  {stale:.4f}   (delta {stale - fresh:+.4f})")

    # 4. Attach LiveUpdate: the node trains LoRA adapters from the traffic
    #    it serves.  Zero bytes cross the inter-cluster network.
    live = LiveUpdate(
        node,
        trainer_cluster=None,  # purely local operation for this demo
        trainer_config=TrainerConfig(rank=8, lr=0.25),
        config=LiveUpdateConfig(steps_per_slot=4),
    )
    print("serving + adapting for 10 simulated minutes ...")
    for _ in range(20):
        served = stream.next_batch(512, local=True)
        live.on_serving_batch(served)
        live.on_slot(now=stream.now)
        stream.advance(30.0)
    cost = live.on_update_window(now=stream.now)

    adapted = evaluate(node, stream, overlay=live.overlay())
    base_now = evaluate(node, stream)
    print(f"AUC with LoRA overlay:     {adapted:.4f}   (recovered {adapted - base_now:+.4f})")
    print(
        f"update cost: {cost.seconds * 1000:.0f} ms of local CPU, "
        f"{cost.bytes_moved:.0f} bytes over the network"
    )
    print(
        f"adapter memory: {live.adapter_memory_bytes() / 1024:.0f} KB "
        f"({live.adapter_memory_fraction() * 100:.2f}% of the EMTs)"
    )


if __name__ == "__main__":
    main()

"""Multi-node LoRA synchronization through the sharded parameter plane.

Four inference nodes adapt LoRA replicas on their own traffic and
synchronize with the sparse priority-merge protocol (Algorithm 3).  Each
round's merged adapter rows are also published — as ONE version bump — to a
:class:`ShardedParameterStore` through the synchronizer's batched
:class:`ShardClient`, and a late-joining observer client catches up with
O(changed) delta pulls instead of a fresh all-to-all exchange.  Shows how
replica divergence collapses at each sync, what the delta protocol moves,
and the tree-merge communication cost behind the Fig. 19 scaling.

Run:  python examples/multi_node_sync.py   (~15 s)
"""

import numpy as np

from repro.cluster import ShardClient, ShardedParameterStore
from repro.core import SparseLoRASynchronizer, LoRATrainer, TrainerConfig
from repro.data import DriftingCTRStream, InferenceLogBuffer, StreamConfig
from repro.dlrm import DLRM, DLRMConfig, RowwiseAdagrad, auc_roc
from repro.experiments.reporting import banner, format_table
from repro.experiments.sync_interval import scalability_curve

TABLE_SIZES = (1500, 1000)
NUM_RANKS = 4
LORA_RANK = 8


def main():
    stream = DriftingCTRStream(
        StreamConfig(table_sizes=TABLE_SIZES, num_dense=4, seed=11)
    )
    base = DLRM(
        DLRMConfig(
            num_dense=4,
            embedding_dim=16,
            table_sizes=TABLE_SIZES,
            bottom_mlp=(32,),
            top_mlp=(32,),
            seed=0,
        )
    )
    optimizer = RowwiseAdagrad(lr=0.05)
    for _ in range(200):
        b = stream.next_batch(256, duration_s=1.0)
        base.train_step(b.dense, b.sparse_ids, b.labels, optimizer)

    trainers = [
        LoRATrainer(
            base.copy(),
            InferenceLogBuffer(600.0),
            TrainerConfig(rank=LORA_RANK, lr=0.2, dynamic_rank=False, seed=r),
        )
        for r in range(NUM_RANKS)
    ]
    # The parameter plane the merged adapter rows publish into: splitmix64
    # shard placement, per-shard delta logs, byte-identical in any process.
    store = ShardedParameterStore(num_shards=4, row_bytes=None, row_dim=LORA_RANK)
    sync = SparseLoRASynchronizer(trainers, sync_interval=16, store=store)
    # A late joiner / external observer session with its own sync point.
    observer = ShardClient(store)
    lora_tables = [f"lora_a/{f}" for f in range(sync.num_fields)]

    print(banner(f"{NUM_RANKS}-node fleet, sync every 16 steps"))
    rows = []
    for step in range(64):
        batches = []
        for _ in range(NUM_RANKS):
            b = stream.next_batch(128, local=True)
            batches.append((b.dense, b.sparse_ids, b.labels))
        sync.step_all(batches)
        stream.advance(5.0)
        if (step + 1) % 8 == 0:
            ev = stream.next_batch(2000, local=True)
            fleet_auc = np.mean(
                [
                    auc_roc(
                        ev.labels,
                        t.model.predict(ev.dense, ev.sparse_ids, overlay=t.overlay()),
                    )
                    for t in trainers
                ]
            )
            rows.append(
                [
                    step + 1,
                    f"{sync.replica_divergence(0):.3f}",
                    f"{fleet_auc:.4f}",
                    sync.rounds,
                    observer.staleness_versions(),
                ]
            )
    print(
        format_table(
            ["step", "replica divergence", "fleet AUC", "syncs", "obs lag"],
            rows,
        )
    )

    total_sync = sum(r.total_seconds for r in sync.reports)
    print(f"\ntotal modelled sync time: {total_sync * 1000:.1f} ms "
          f"over {sync.rounds} rounds")

    print(banner("Observer catch-up through the shard store"))
    deltas, pull = observer.pull_tables(lora_tables)
    pushed = sum(r.rows for r in sync.publish_reports)
    print(
        f"store version {store.version} across {store.num_shards} shards, "
        f"{len(store):,} resident rows"
    )
    print(
        f"one batched pull caught up {pull.rows:,} changed rows "
        f"({pull.bytes / 1024:.1f} KiB, {pull.seconds * 1000:.2f} ms modelled) "
        f"vs {pushed:,} rows published over {len(sync.publish_reports)} rounds"
    )
    for table in lora_tables:
        ids, _ = deltas[table]
        print(f"  {table}: {ids.size} changed adapter rows")

    report = store.add_shard()
    print(
        f"add_shard -> {store.num_shards} shards moved only "
        f"{report.moved_fraction:.1%} of rows (consistent-hash key ranges)"
    )
    report = store.remove_shard(report.shard_ids[-1])
    print(
        f"remove_shard -> {store.num_shards} shards moved "
        f"{report.moved_fraction:.1%} of rows back"
    )

    print(banner("Tree-merge scaling (Fig. 19)"))
    points = scalability_curve()
    print(
        format_table(
            ["nodes", "sync s/window", "kind"],
            [
                [p.num_nodes, f"{p.sync_seconds:.1f}", "proj" if p.projected else "meas"]
                for p in points
            ],
        )
    )


if __name__ == "__main__":
    main()

"""Tiered embedding serving with consistency checking and bursty load.

Demonstrates the remaining serving substrates: the HBM/DRAM tiered
embedding store (Section II-B's hybrid hierarchy), request arrival bursts,
and the fleet consistency checker (requirement 3 of Section II-C).

Run:  python examples/tiered_serving.py
"""

import numpy as np

from repro.cluster import (
    InferenceNode,
    ShardedParameterStore,
    check_prediction_consistency,
    parameter_divergence,
)
from repro.data import ArrivalConfig, RequestArrivalProcess, ZipfSampler
from repro.dlrm import DLRM, DLRMConfig
from repro.experiments.reporting import banner, format_table
from repro.hardware import TieredEmbeddingStore, TieredStoreConfig


def tiered_lookup_demo():
    """Hot-in-HBM placement vs no placement under Zipf traffic."""
    rng = np.random.default_rng(0)
    num_rows, dim = 50_000, 16
    weight = rng.normal(size=(num_rows, dim))
    sampler = ZipfSampler(num_rows, exponent=1.4, rng=rng)
    traffic = sampler.sample(30_000)

    configs = {
        "no HBM tier": TieredStoreConfig(
            hbm_capacity_rows=1, promote_on_access=False
        ),
        "LRU promotion": TieredStoreConfig(hbm_capacity_rows=5000),
        "preloaded hot set": TieredStoreConfig(
            hbm_capacity_rows=5000, promote_on_access=False
        ),
    }
    rows = []
    for name, cfg in configs.items():
        store = TieredEmbeddingStore(weight, cfg)
        if name == "preloaded hot set":
            store.preload_hot(sampler.hot_ids(0.10))
        store.lookup(traffic)
        rows.append(
            [
                name,
                f"{store.stats.hbm_hit_ratio * 100:.1f}%",
                f"{store.mean_lookup_latency_us():.2f} us",
            ]
        )
    print(banner("Tiered embedding store (HBM + DRAM hierarchy)"))
    print(format_table(["placement", "HBM hit ratio", "mean lookup"], rows))


def bursty_load_demo():
    """Burstiness of the arrival process (the P99 stressor)."""
    calm = RequestArrivalProcess(
        ArrivalConfig(base_qps=2000, burst_rate_per_hour=0.0, seed=1)
    )
    bursty = RequestArrivalProcess(
        ArrivalConfig(
            base_qps=2000, burst_rate_per_hour=6.0, burst_multiplier=4.0, seed=1
        )
    )
    print(banner("Request arrival burstiness"))
    print(
        format_table(
            ["process", "peak/mean over 1 h"],
            [
                ["calm (Poisson)", f"{calm.peak_to_mean():.2f}"],
                ["with burst episodes", f"{bursty.peak_to_mean():.2f}"],
            ],
        )
    )


def consistency_demo():
    """Fleet consistency probe before and after a replica diverges."""
    model = DLRM(
        DLRMConfig(num_dense=4, embedding_dim=16, table_sizes=(2000, 1000))
    )
    server = ShardedParameterStore()
    fleet_models = [model.copy() for _ in range(3)]
    nodes = [InferenceNode(m, server, node_id=i) for i, m in enumerate(fleet_models)]

    rng = np.random.default_rng(2)
    from repro.data import Batch

    probe = Batch(
        timestamp=0.0,
        dense=rng.normal(size=(64, 4)),
        sparse_ids=rng.integers(0, 1000, size=(64, 2)),
        labels=rng.integers(0, 2, size=64).astype(float),
    )
    print(banner("Replica consistency probe"))
    report = check_prediction_consistency([n.model for n in nodes], probe)
    print("fresh fleet: ", report.summary)

    # one replica silently drifts (e.g. missed an update)
    fleet_models[1].embeddings[0].weight[:100] += 0.05
    report = check_prediction_consistency([n.model for n in nodes], probe)
    print("after drift: ", report.summary)
    div = parameter_divergence([n.model for n in nodes])
    print("divergence by component:", {k: round(v, 4) for k, v in div.items()})


def main():
    tiered_lookup_demo()
    bursty_load_demo()
    consistency_demo()


if __name__ == "__main__":
    main()

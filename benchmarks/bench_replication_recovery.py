"""Replication overhead and crash-recovery cost of the parameter plane.

Two questions a deployment of Section II-B's delta protocol with R-way
replication has to answer:

1. **What does durability cost on the write path?**  Publishing under
   ``replication=3`` writes three copies of every row, but the
   shard-grouped scatter amortizes placement hashing, dedup and slot
   lookups across replicas, so the overhead over a single-copy store
   should stay well below the naive 3x.
2. **How fast does a revived replica heal?**  After a kill + missed
   windows + revive, ``plan_repair``/``repair`` copies only the rows the
   dead shard actually missed — recovery cost tracks the outage's delta
   volume, not the resident table size.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_replication_recovery.py
    PYTHONPATH=src python benchmarks/bench_replication_recovery.py \
        --rows 100000 --check-overhead 2

``--check-overhead X`` exits non-zero if the steady-state windowed
publish against a 1e5-row replicated store costs more than ``X`` times
the single-copy store (the CI gate).
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.cluster.shardstore import ShardedParameterStore

DIM = 16


def _best_seconds(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _fresh_store(num_shards: int, replication: int) -> ShardedParameterStore:
    return ShardedParameterStore(
        num_shards=num_shards,
        row_bytes=DIM * 8,
        row_dim=DIM,
        replication=replication,
    )


def bench_publish_pair(
    num_shards: int, replication: int, num_rows: int, delta_rows: int, rng
) -> tuple[dict[str, float], dict[str, float]]:
    """Publish rates for ``R=1`` vs ``R=replication``, interleaved.

    Three regimes per store: first insertion into a fresh store (cold
    fill, pays slot-table growth and so approaches the raw R-times
    data-volume ratio), a full-table republish into the warm store
    (pure data-movement bound), and the 1%-delta windowed publish that
    is the protocol's actual steady state — the ≤2x gate measures that
    one, against a resident table of ``num_rows`` rows.  Single-copy and
    replicated timings alternate round-robin so clock drift and cache
    warmth hit both sides equally.
    """
    all_ids = np.arange(num_rows)
    base = rng.normal(size=(num_rows, DIM))
    hot = rng.choice(num_rows, size=delta_rows, replace=False)
    stores = [
        _fresh_store(num_shards, 1),
        _fresh_store(num_shards, replication),
    ]
    results: list[dict[str, float]] = []
    for store in stores:
        fill_s = _best_seconds(
            lambda: store.publish_batch("emb", all_ids, base), repeats=1
        )
        results.append({"fill_rows_per_s": num_rows / fill_s})
    timings = {id(store): {"steady": [], "windowed": []} for store in stores}
    for _ in range(5):
        for store in stores:
            t0 = time.perf_counter()
            store.publish_batch("emb", all_ids, base)
            timings[id(store)]["steady"].append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            store.publish_batch("emb", hot, base[hot])
            timings[id(store)]["windowed"].append(time.perf_counter() - t0)
    for store, result in zip(stores, results):
        result["steady_rows_per_s"] = num_rows / min(
            timings[id(store)]["steady"]
        )
        result["publish_rows_per_s"] = delta_rows / min(
            timings[id(store)]["windowed"]
        )
    return results[0], results[1]


def bench_recovery(
    num_shards: int,
    replication: int,
    num_rows: int,
    delta_rows: int,
    outage_windows: int,
    rng,
) -> dict[str, float]:
    """Kill a shard, publish through the outage, revive, time the repair."""
    store = _fresh_store(num_shards, replication)
    all_ids = np.arange(num_rows)
    store.publish_batch("emb", all_ids, rng.normal(size=(num_rows, DIM)))
    victim = store.shard_ids[0]
    store.kill_shard(victim)
    for _ in range(outage_windows):
        hot = rng.choice(num_rows, size=delta_rows, replace=False)
        store.publish_batch("emb", hot, rng.normal(size=(delta_rows, DIM)))
    store.revive_shard(victim)
    t0 = time.perf_counter()
    plan = store.plan_repair()
    report = store.repair(plan)
    repair_s = time.perf_counter() - t0
    assert report.shards_healed == [victim], report
    assert store.replication_lag == 0
    return {
        "rows_repaired": float(report.rows_copied),
        "bytes_repaired": float(report.bytes_copied),
        "repair_s": repair_s,
        "repair_rows_per_s": report.rows_copied / max(repair_s, 1e-9),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=100_000)
    parser.add_argument("--delta-fraction", type=float, default=0.01)
    parser.add_argument("--shards", type=int, default=8)
    parser.add_argument("--replication", type=int, default=3)
    parser.add_argument("--outage-windows", type=int, default=5)
    parser.add_argument(
        "--check-overhead",
        type=float,
        default=None,
        help="fail if the replicated windowed publish against a resident "
        "--rows-row table costs more than this multiple of single-copy",
    )
    args = parser.parse_args(argv)
    if args.rows < 1000:
        parser.error("--rows must be at least 1000")
    if args.replication < 2:
        parser.error("--replication must be at least 2 to measure overhead")
    delta_rows = max(1, int(args.rows * args.delta_fraction))

    single, replicated = bench_publish_pair(
        args.shards,
        args.replication,
        args.rows,
        delta_rows,
        np.random.default_rng(7),
    )
    overhead = {
        key: single[key] / replicated[key]
        for key in (
            "fill_rows_per_s",
            "steady_rows_per_s",
            "publish_rows_per_s",
        )
    }
    recovery = bench_recovery(
        args.shards,
        args.replication,
        args.rows,
        delta_rows,
        args.outage_windows,
        np.random.default_rng(11),
    )

    print(
        f"replication overhead @ {args.rows:,} rows, "
        f"R={args.replication}, {args.shards} shards (rows/sec)"
    )
    print(f"{'operation':<22} {'R=1':>14} {f'R={args.replication}':>14} {'overhead':>9}")
    for key, label in (
        ("fill_rows_per_s", f"cold fill ({args.rows:,})"),
        ("steady_rows_per_s", f"steady publish ({args.rows:,})"),
        ("publish_rows_per_s", f"windowed publish ({delta_rows:,})"),
    ):
        print(
            f"{label:<22} {single[key]:>14,.0f} {replicated[key]:>14,.0f} "
            f"{overhead[key]:>8.2f}x"
        )
    print(
        f"recovery: {recovery['rows_repaired']:,.0f} rows "
        f"({recovery['bytes_repaired'] / 1e6:.1f} MB) healed in "
        f"{recovery['repair_s'] * 1e3:.1f} ms "
        f"({recovery['repair_rows_per_s']:,.0f} rows/s)"
    )

    if args.check_overhead is not None:
        if overhead["publish_rows_per_s"] > args.check_overhead:
            print(
                f"FAIL: replicated windowed-publish overhead "
                f"{overhead['publish_rows_per_s']:.2f}x above "
                f"{args.check_overhead}x",
                file=sys.stderr,
            )
            return 1
        print(
            f"OK: replicated windowed-publish overhead "
            f"{overhead['publish_rows_per_s']:.2f}x <= {args.check_overhead}x"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Parameter-plane throughput: seed dict store vs sharded delta-log store.

Measures publish and ``pull_delta`` rows/sec at production-ish row counts,
comparing the repository's original dict-based parameter server (kept
here verbatim as the reference) against
:class:`repro.cluster.shardstore.ShardedParameterStore`.  The interesting
case is the steady state of Section II-B's delta protocol: a large resident
table where each window touches ~1% of rows.  The dict store pays an
O(all-rows) scan per pull; the sharded store slices per-shard delta logs,
so its pull cost tracks the delta size, not the table size.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_paramserver_throughput.py
    PYTHONPATH=src python benchmarks/bench_paramserver_throughput.py \
        --rows 100000 --delta-fraction 0.01 --check-speedup 10

``--check-speedup X`` exits non-zero unless the sharded store's
``pull_delta`` is at least ``X`` times faster than the dict reference (the
CI smoke gate).
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.cluster.shardstore import ShardedParameterStore

DIM = 16


class SeedDictStore:
    """The seed implementation: one Python dict entry per row.

    ``pull_delta`` scans every key of every table; the per-key shard lookup
    is omitted (its builtin-``hash()`` placement was nondeterministic anyway and stats
    don't affect throughput).
    """

    def __init__(self, row_bytes: int = DIM * 8) -> None:
        self.row_bytes = row_bytes
        self.version = 0
        self._rows: dict[tuple[str, int], np.ndarray] = {}
        self._row_version: dict[tuple[str, int], int] = {}

    def publish_batch(self, table, indices, rows) -> int:
        indices = np.asarray(indices, dtype=np.int64)
        self.version += 1
        for i, row in zip(indices, rows):
            key = (table, int(i))
            self._rows[key] = np.array(row, dtype=np.float64, copy=True)
            self._row_version[key] = self.version
        return self.version

    def pull_delta(self, table, since_version):
        hits = [
            (key[1], self._rows[key])
            for key, ver in self._row_version.items()
            if key[0] == table and ver > since_version
        ]
        if not hits:
            return np.array([], dtype=np.int64), np.zeros((0, 1)), self.version
        hits.sort(key=lambda kv: kv[0])
        indices = np.array([h[0] for h in hits], dtype=np.int64)
        rows = np.stack([h[1] for h in hits])
        return indices, rows, self.version


def _best_seconds(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_store(store, num_rows: int, delta_rows: int, rng) -> dict[str, float]:
    """Fill the store, then measure windowed publish + delta-pull rates."""
    all_ids = np.arange(num_rows)
    base = rng.normal(size=(num_rows, DIM))
    fill_s = _best_seconds(
        lambda: store.publish_batch("emb", all_ids, base), repeats=1
    )

    # steady state: measure publish and pull separately on fixed deltas
    hot = rng.choice(num_rows, size=delta_rows, replace=False)
    publish_s = _best_seconds(
        lambda: store.publish_batch("emb", hot, base[hot])
    )
    since = store.version - 1
    idx, _, _ = store.pull_delta("emb", since)
    assert idx.size == delta_rows, (idx.size, delta_rows)
    pull_s = _best_seconds(lambda: store.pull_delta("emb", since))
    return {
        "fill_rows_per_s": num_rows / fill_s,
        "publish_rows_per_s": delta_rows / publish_s,
        "pull_rows_per_s": delta_rows / pull_s,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=100_000)
    parser.add_argument("--delta-fraction", type=float, default=0.01)
    parser.add_argument("--shards", type=int, default=8)
    parser.add_argument(
        "--check-speedup",
        type=float,
        default=None,
        help="fail unless the sharded pull_delta speedup reaches this factor",
    )
    args = parser.parse_args(argv)
    if args.rows < 1000:
        parser.error("--rows must be at least 1000")
    delta_rows = max(1, int(args.rows * args.delta_fraction))

    dict_store = SeedDictStore()
    sharded = ShardedParameterStore(
        num_shards=args.shards, row_bytes=DIM * 8, row_dim=DIM
    )
    ref = bench_store(dict_store, args.rows, delta_rows, np.random.default_rng(7))
    vec = bench_store(sharded, args.rows, delta_rows, np.random.default_rng(7))

    # same windowed delta must come back from both stores
    rng = np.random.default_rng(11)
    ids = rng.choice(args.rows, size=delta_rows, replace=False)
    rows = rng.normal(size=(delta_rows, DIM))
    since_ref, since_vec = dict_store.version, sharded.version
    dict_store.publish_batch("emb", ids, rows)
    sharded.publish_batch("emb", ids, rows)
    ref_idx, ref_rows, _ = dict_store.pull_delta("emb", since_ref)
    vec_idx, vec_rows, _ = sharded.pull_delta("emb", since_vec)
    np.testing.assert_array_equal(ref_idx, vec_idx)
    np.testing.assert_allclose(ref_rows, vec_rows)

    print(
        f"parameter-plane throughput @ {args.rows:,} resident rows, "
        f"{delta_rows:,}-row deltas (rows/sec)"
    )
    print(f"{'operation':<22} {'dict store':>14} {'sharded store':>14} {'speedup':>9}")
    speedups = {}
    for key, label in (
        ("fill_rows_per_s", "bulk fill publish"),
        ("publish_rows_per_s", "windowed publish"),
        ("pull_rows_per_s", "pull_delta (1%)"),
    ):
        speedups[key] = vec[key] / ref[key]
        print(
            f"{label:<22} {ref[key]:>14,.0f} {vec[key]:>14,.0f} "
            f"{speedups[key]:>8.1f}x"
        )

    from _emit import emit_bench_result  # sibling module; script dir is on sys.path

    emit_bench_result(
        "paramserver",
        shape=f"{args.rows} rows, {delta_rows}-row deltas, {args.shards} shards",
        ids_per_sec=vec["pull_rows_per_s"],
        speedup=speedups["pull_rows_per_s"],
        extra={f"speedup_{k.split('_')[0]}": v for k, v in speedups.items()},
    )

    if args.check_speedup is not None:
        if speedups["pull_rows_per_s"] < args.check_speedup:
            print(
                f"FAIL: pull_delta speedup "
                f"{speedups['pull_rows_per_s']:.1f}x below "
                f"{args.check_speedup}x",
                file=sys.stderr,
            )
            return 1
        print(f"OK: pull_delta speedup >= {args.check_speedup}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Compare two sets of benchmark runs, one row per (metric, workload).

    python3 benchmarks/e2e/compare.py A B

``A`` (the parent, or the first set) and ``B`` (the change, or the second
set) are each a file written by ``run.py --out`` or a directory of such
files — typically ten untraced runs per workload, one seed each.

Host-time rows show both medians, each set's spread (distance between the
first and third quartile over the median) and the bound ``BENCHMARK.json``
fixes, with a verdict:

``better``        B improved by more than either set's spread;
``within bound``  B is no worse than A by more than the bound;
``worse``         B is worse than A by more than the bound;
``unresolved``    a set's spread is wider than the bound, so the medians
                  decide nothing — unless every run of B reads better than
                  every run of A, which is ``better``.

Exact rows (``paper.*`` metrics that are modelled or deterministic) pair
runs of the same workload, seed, length and trace mode and must be
identical.  The exit code is 1 when any row is ``worse`` or ``differs``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from e2e_env import REPO_ROOT

__all__ = ["EXACT_METRICS", "load_runs", "compare", "main"]

# Modelled or deterministic for a fixed seed and length: any difference
# between two commits is a change of behaviour, not noise.
EXACT_METRICS = (
    "paper.auc",
    "paper.auc_gain_pts",
    "paper.adapter_mem_pct",
    "paper.update_bytes",
    "paper.update_modelled_ms",
    "paper.pull_modelled_p99_ms",
    "paper.sim_p99_ms",
    "paper.sim_p99_impact_ms",
)


def load_runs(path: str) -> list[dict]:
    """Run records from one ``--out`` file or a directory of them."""
    root = Path(path)
    files = sorted(root.glob("*.json")) if root.is_dir() else [root]
    runs: list[dict] = []
    for file in files:
        with open(file, encoding="utf-8") as handle:
            runs.extend(json.load(handle)["runs"])
    if not runs:
        raise SystemExit(f"no runs found in {path}")
    return runs


def _spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def _host_row(a: list[float], b: list[float], better: str, bound: float) -> dict:
    med_a, med_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (med_b - med_a) / abs(med_a)  # > 0 means B is worse
    spread = max(_spread(a), _spread(b))
    all_better = (
        max(b) < min(a) if better == "lower" else min(b) > max(a)
    )
    if spread > bound:
        verdict = "better" if all_better else "unresolved"
    elif worse_by > bound:
        verdict = "worse"
    elif -worse_by > spread:
        verdict = "better"
    else:
        verdict = "within bound"
    return {
        "a": med_a,
        "b": med_b,
        "spread_a": _spread(a),
        "spread_b": _spread(b),
        "bound": bound,
        "verdict": verdict,
    }


def compare(runs_a: list[dict], runs_b: list[dict], spec: dict) -> list[dict]:
    """Every comparison row; see the module docstring for the verdicts."""
    rows: list[dict] = []
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [
                [
                    r["metrics"][name]
                    for r in runs
                    if r["workload"] == workload and not r["trace"]
                ]
                for runs in (runs_a, runs_b)
            ]
            if not (values[0] and values[1]):
                continue
            row = _host_row(*values, metric["better"], metric["bound"])
            rows.append({"workload": workload, "metric": name, **row})
    key = ("workload", "seed", "iterations", "trace")
    by_key = {tuple(r[k] for k in key): r for r in runs_b}
    for run in runs_a:
        other = by_key.get(tuple(run[k] for k in key))
        if other is None:
            continue
        for name in EXACT_METRICS:
            if name not in run["metrics"] or name not in other["metrics"]:
                continue
            a, b = run["metrics"][name], other["metrics"][name]
            rows.append(
                {
                    "workload": f"{run['workload']}@seed{run['seed']}",
                    "metric": name,
                    "a": a,
                    "b": b,
                    "spread_a": 0.0,
                    "spread_b": 0.0,
                    "bound": 0.0,
                    "verdict": "identical" if a == b else "differs",
                }
            )
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="first set: an --out file or a directory of them")
    parser.add_argument("b", help="second set")
    args = parser.parse_args(argv)
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    rows = compare(load_runs(args.a), load_runs(args.b), spec)
    print(
        f"{'workload':<22} {'metric':<28} {'A median':>14} {'B median':>14} "
        f"{'spread A':>9} {'spread B':>9} {'bound':>6}  verdict"
    )
    for row in rows:
        print(
            f"{row['workload']:<22} {row['metric']:<28} {row['a']:>14.6g} "
            f"{row['b']:>14.6g} {row['spread_a']:>9.4f} {row['spread_b']:>9.4f} "
            f"{row['bound']:>6.3f}  {row['verdict']}"
        )
    bad = [r for r in rows if r["verdict"] in ("worse", "differs")]
    print(f"{len(rows)} rows, {len(bad)} worse or differing")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

"""The repo benchmark: four workloads from request to fresh parameter.

    python3 benchmarks/e2e/run.py [--workload W] [--seed S] [--seconds N]
                                  [--trace [0|1]] [--smoke] [--out FILE]

One process, one thread.  Without ``--workload`` every workload runs.  An
untraced run (``--trace 0``, the default) builds the world five times
(``setup_s`` is the median), runs the timed loop with no span recorded and
reports the end-to-end metrics.  A traced run (``--trace 1``) runs a quarter
of the length twice on fresh worlds — once plain, once with spans wrapped
around the instances' public methods — and reports the per-layer metrics,
``harness.unattributed_share`` and ``harness.trace_overhead_pct``.

Correctness checks run inside the same command; a failed check makes the
result ``"correct": false`` and the exit code 1.  With one ``--workload``
the last line of standard output is the result object ``BENCHMARK.json``'s
contract asks for.  Metric names, units and bounds live in
``BENCHMARK.json`` at the repo root and nowhere else.
"""

from __future__ import annotations

# Must stay the first import: it pins the BLAS pools before numpy loads.
from e2e_env import REPO_ROOT

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

from e2e_trace import SpanRecorder
from e2e_workloads import FULL, SMOKE, WORKLOADS, Outcome, Scale

__all__ = ["load_spec", "measure", "main"]

SETUP_REPEATS = 5
TRACE_LENGTH_SHARE = 4  # a traced run is 1/4 of the untraced length
REFERENCE_SECONDS = 30.0  # Scale.iterations are sized for this much
HOST_UNITS = frozenset({"s", "ms", "us", "1/s"})
HOST_DERIVED = frozenset(
    {"peak_rss_mb", "harness.trace_overhead_pct", "harness.unattributed_share"}
)


def load_spec() -> dict:
    """``BENCHMARK.json``: the one place metric names and units are fixed."""
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def clock_of(name: str, unit: str) -> str:
    """Which clock a metric is read from: host, modelled, or neither."""
    if "modelled" in name or ".sim_" in name:
        return "modelled"
    if unit in HOST_UNITS or name in HOST_DERIVED:
        return "host"
    return "exact"


def _build(cls, seed: int, scale: Scale):
    """A fresh world and the host seconds it took to build."""
    gc.collect()
    start = perf_counter()
    workload = cls(seed, scale)
    return workload, perf_counter() - start


def _untraced(cls, seed: int, scale: Scale, iterations: int) -> tuple[Outcome, None]:
    times: list[float] = []
    workload = None
    for _ in range(SETUP_REPEATS):
        workload = None  # free the previous world before building the next
        workload, seconds = _build(cls, seed, scale)
        times.append(seconds)
    workload.run(iterations, SpanRecorder())
    outcome = workload.finish()
    outcome.metrics["setup_s"] = statistics.median(times)
    return outcome, None


def _traced(
    cls, seed: int, scale: Scale, iterations: int
) -> tuple[Outcome, SpanRecorder]:
    plain, _ = _build(cls, seed, scale)
    plain.run(iterations, SpanRecorder())
    reference = plain.finish()
    plain = None
    traced, _ = _build(cls, seed, scale)
    rec = SpanRecorder()
    traced.patch(rec)
    try:
        traced.run(iterations, rec)
    finally:
        rec.restore()
    outcome = traced.finish()
    metrics = outcome.metrics
    for name, seconds in rec.self_seconds().items():
        metrics[name + "_s"] = seconds
    metrics["harness.unattributed_share"] = 1.0 - rec.root_seconds() / outcome.timed_s
    metrics["harness.trace_overhead_pct"] = (
        outcome.timed_s / reference.timed_s - 1.0
    ) * 100.0
    outcome.failures = reference.failures + outcome.failures
    outcome.attempted += reference.attempted
    outcome.failed += reference.failed
    return outcome, rec


def measure(name: str, seed: int, seconds: float, scale: Scale, trace: int) -> dict:
    """Run one workload; returns the record ``--out`` stores."""
    iterations = round(scale.iterations[name] * seconds / REFERENCE_SECONDS)
    if trace:
        iterations //= TRACE_LENGTH_SHARE
    iterations = max(iterations, scale.min_iterations[name])
    runner = _traced if trace else _untraced
    outcome, rec = runner(WORKLOADS[name], seed, scale, iterations)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "iterations": iterations,
        "trace": trace,
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": outcome.failures,
        "timed_s": outcome.timed_s,
        "metrics": outcome.metrics,
    }
    if rec is not None:
        record["spans"] = rec.spans
    return record


def contract_result(record: dict, spec: dict) -> dict:
    """The result object of the ``BENCHMARK.json`` contract for one run.

    End-to-end metrics must all be present; a per-layer metric a workload
    does not exercise reads 0, which is how the trace shows that a
    workload leaves a layer alone.
    """
    metrics = record["metrics"]
    if record["trace"]:
        chosen = {
            m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    else:
        chosen = {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": chosen,
    }


def _git_rev() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() or "unknown"


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def print_header(args) -> None:
    print(
        f"# e2e benchmark  rev={_git_rev()}  seed={args.seed}  "
        f"seconds={args.seconds}  trace={args.trace}  smoke={int(args.smoke)}"
    )
    print(
        f"# nproc={os.cpu_count()}  python={sys.version.split()[0]}  "
        f"numpy={np.__version__}  blas={_blas()}  "
        f"OMP/OPENBLAS/MKL threads={os.environ['OPENBLAS_NUM_THREADS']}"
    )
    print(
        "# clocks: host = perf_counter of this process with the harness's own "
        "work taken out; modelled = the alpha-beta / cache / latency models' "
        "simulated time (repeats exactly for a seed); exact = counts and "
        "ratios that repeat exactly for a seed"
    )


def print_record(record: dict, spec: dict) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    metrics = record["metrics"]
    print(
        f"\n== {record['workload']}  iterations={record['iterations']}  "
        f"timed={record['timed_s']:.2f}s host  "
        f"operations+checks attempted={record['attempted']} failed={record['failed']} "
        f"failed_share={record['failed'] / record['attempted']:.4f}"
    )
    for failure in record["failures"]:
        print(f"   FAILED {failure}")
    names = [n for n in end_to_end if n in metrics]
    names += sorted(n for n in metrics if n not in end_to_end)
    for name in names:
        unit = units[name]
        print(f"   {name:<48} {metrics[name]:>16.6g} {unit:<6} {clock_of(name, unit)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=REFERENCE_SECONDS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", help="write the run records (and spans) here")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    spec = load_spec()
    scale = SMOKE if args.smoke else FULL
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    print_header(args)
    records = []
    for name in names:
        record = measure(name, args.seed, args.seconds, scale, args.trace)
        print_record(record, spec)
        records.append(record)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"runs": records}, handle)
    if args.workload:
        sys.stdout.flush()
        print(json.dumps(contract_result(records[0], spec)))
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())

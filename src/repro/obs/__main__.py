"""Snapshot CLI for the telemetry plane: ``python -m repro.obs``.

Runs a deterministic two-node shardstore sync scenario on a simulated
clock (drive schedule from :func:`repro.cluster.timeline.
simulate_periodic_updates`), then prints the requested view:

* ``--dump metrics`` (default) — the registry :func:`scenario_metrics`
  builds from the scenario's own logs, ``--format text`` (Prometheus
  exposition) or ``--format json`` (schema-versioned JSON).
* ``--dump trace`` — canonical span dump; byte-identical across
  processes and hash seeds (the trace-determinism regression test
  compares this output verbatim).
* ``--dump flight`` — flight-recorder post-mortem tail.
* ``--selfcheck`` — validate the JSON snapshot against its schema
  version and exit non-zero on any mismatch (CI ``obs`` job).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from ..cluster.shardstore import ShardClient, ShardedParameterStore
from ..cluster.timeline import simulate_periodic_updates
from ..serving.qos import SLAMonitor
from .clock import SimClock
from .export import render_json, render_prometheus, snapshot, validate_snapshot
from .metrics import MetricsRegistry
from .recorder import FlightRecorder
from .trace import Tracer


def run_sync_scenario(
    windows: int = 4,
    seed: int = 0,
) -> tuple[Tracer, FlightRecorder, MetricsRegistry]:
    """Two clients syncing through one store on a simulated timeline.

    A trainer client stages and flushes two tables of 8-wide rows per
    update window (256 + 128 rows); an inference client pulls the deltas.
    Window start times come from the ``cluster.timeline`` periodic-update
    simulator, transfer durations from the client's alpha-beta cost
    model, and every duration advances the shared
    :class:`~repro.obs.clock.SimClock` — so the resulting
    trace is a pure function of the arguments, byte-identical across
    processes, hosts, and hash seeds.  The registry returned beside the
    trace is :func:`scenario_metrics` over the run's own logs.
    """
    clock = SimClock()
    recorder = FlightRecorder()
    tracer = Tracer(clock=clock, recorder=recorder)
    rows_per_window, dim = 256, 8
    store = ShardedParameterStore(num_shards=4, row_bytes=None, row_dim=dim)
    trainer = ShardClient(store, tracer=tracer)
    node = ShardClient(store, tracer=tracer)
    monitor = SLAMonitor(p99_target_ms=10.0, window_requests=rows_per_window)
    rng = np.random.default_rng(seed)
    schedule = simulate_periodic_updates(
        horizon_s=windows * 60.0,
        interval_s=60.0,
        update_duration_s=5.0,
        kind="delta",
    )
    universe = 10 * rows_per_window
    latencies = []
    for event in schedule.events:
        clock.set(event.started_s)
        with tracer.span("obs.scenario.window", version=event.version):
            ids = rng.choice(universe, size=rows_per_window, replace=False)
            rows = rng.normal(size=(rows_per_window, dim))
            half = rows_per_window // 2
            trainer.stage("table_0", ids, rows)
            trainer.stage("table_1", ids[:half], rows[:half])
            trainer.flush()
            node.pull_tables(["table_0", "table_1"])
            latencies.append(rng.lognormal(mean=1.0, sigma=0.6, size=256))
            monitor.observe(latencies[-1])
    reg = scenario_metrics(trainer, node, store, monitor, np.concatenate(latencies))
    return tracer, recorder, reg


def scenario_metrics(
    trainer: ShardClient,
    node: ShardClient,
    store: ShardedParameterStore,
    monitor: SLAMonitor,
    latencies_ms: np.ndarray,
) -> MetricsRegistry:
    """Turn the components' own records into one metrics registry.

    Every value is read off a log or state the component keeps anyway:
    the trainer's ``push_log``, the node's ``pull_log``, the store's
    version / residency / replica lag, and the monitor's window
    ``reports`` plus the latencies it was fed.
    """
    reg = MetricsRegistry()
    pushes, pulls = trainer.push_log, node.pull_log
    reg.counter("shardstore.client.flushes", help="publish flushes").add(len(pushes))
    reg.counter("shardstore.client.rows_published", help="rows pushed").add(
        sum(r.rows for r in pushes)
    )
    reg.counter("shardstore.client.bytes_published", help="bytes pushed").add(
        sum(r.bytes for r in pushes)
    )
    reg.counter("shardstore.client.pulls", help="batched delta pulls").add(len(pulls))
    reg.counter("shardstore.client.rows_pulled", help="delta rows pulled").add(
        sum(r.rows for r in pulls)
    )
    reg.counter("shardstore.client.bytes_pulled", help="bytes pulled").add(
        sum(r.bytes for r in pulls)
    )
    reg.histogram(
        "shardstore.client.transfer_seconds",
        help="modelled per-transfer time (alpha-beta cost model)",
        lo=1e-6,
        hi=1e4,
    ).observe_many(np.array([r.seconds for r in pushes + pulls], dtype=np.float64))
    reg.gauge("shardstore.store.version", help="global store version").set(store.version)
    reg.gauge("shardstore.store.resident_rows", help="rows resident").set(len(store))
    reg.gauge("shardstore.store.num_shards", help="live shard count").set(store.num_shards)
    reg.gauge(
        "shardstore.store.replication_lag", help="missed publish applications"
    ).set(store.replication_lag)
    reg.histogram(
        "serving.latency_ms", help="request latency fed to SLAMonitor", lo=1e-2, hi=1e5
    ).observe_many(latencies_ms)
    reg.counter("serving.requests", help="request latencies observed").add(
        latencies_ms.size
    )
    reg.counter("serving.sla.windows", help="monitoring windows closed").add(
        len(monitor.reports)
    )
    reg.counter("serving.sla.violations", help="windows whose p99 broke the SLA").add(
        sum(r.violated for r in monitor.reports)
    )
    return reg


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs", description=__doc__
    )
    parser.add_argument(
        "--dump",
        choices=("metrics", "trace", "flight"),
        default="metrics",
        help="which telemetry view to print",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="metrics output format (text = Prometheus exposition)",
    )
    parser.add_argument("--windows", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--selfcheck",
        action="store_true",
        help="validate the JSON snapshot schema and exit non-zero on errors",
    )
    args = parser.parse_args(argv)

    tracer, recorder, reg = run_sync_scenario(windows=args.windows, seed=args.seed)

    if args.selfcheck:
        snap = snapshot(reg)
        errors = validate_snapshot(snap)
        if errors:
            for err in errors:
                print(f"SELFCHECK FAIL: {err}", file=sys.stderr)
            return 1
        num_metrics = sum(
            len(snap[s]) for s in ("counters", "gauges", "histograms")
        )
        print(
            f"snapshot schema v{snap['schema_version']} ok "
            f"({num_metrics} metrics)"
        )
        return 0
    if args.dump == "trace":
        print(tracer.dump_json())
    elif args.dump == "flight":
        print(recorder.dump_text())
    elif args.format == "json":
        print(render_json(reg))
    else:
        print(render_prometheus(reg), end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

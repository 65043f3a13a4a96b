"""Telemetry library: metrics, sim-clock spans, flight recorder, exporters.

``repro.obs`` holds no process-wide state.  Components own their counts
in their own reports and logs (``ShardClient.push_log`` / ``pull_log``,
``SLAMonitor.reports``, ``FaultPlane.injected``, ``RepairReport``...);
this package is the library a caller builds from explicitly:

* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` of counters,
  gauges, and log-bucketed :class:`Histogram`\\ s whose
  ``observe_many`` folds whole arrays in one bincount pass.
* :mod:`repro.obs.clock` / :mod:`repro.obs.trace` — :class:`Span` /
  :class:`Tracer` timing off a :class:`SimClock` inside simulations
  (byte-identical dumps across processes) or ``perf_counter`` outside.
* :mod:`repro.obs.recorder` — :class:`FlightRecorder` ring buffers of
  the last N events per component for post-mortem dumps.
* :mod:`repro.obs.export` — Prometheus-style text and schema-versioned
  JSON snapshots of a registry.

``python -m repro.obs`` is the one place that turns component stats into
metrics: it replays a sync scenario and builds a registry from its logs.
"""

from .clock import SimClock, WallClock
from .export import (
    SNAPSHOT_SCHEMA_VERSION,
    render_json,
    render_prometheus,
    snapshot,
    validate_snapshot,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .recorder import FlightEvent, FlightRecorder
from .trace import Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SimClock",
    "WallClock",
    "Span",
    "Tracer",
    "FlightEvent",
    "FlightRecorder",
    "SNAPSHOT_SCHEMA_VERSION",
    "snapshot",
    "render_json",
    "render_prometheus",
    "validate_snapshot",
]

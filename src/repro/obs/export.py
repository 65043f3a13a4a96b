"""Exporters: Prometheus-style text and versioned-JSON metric snapshots.

:func:`snapshot` freezes a :class:`~repro.obs.metrics.MetricsRegistry`
into a plain dict stamped with :data:`SNAPSHOT_SCHEMA_VERSION`;
:func:`render_json` serialises it canonically, :func:`render_prometheus`
emits the text exposition format (dots become underscores, histograms
expand to cumulative ``_bucket{le=...}`` series plus ``_sum``/``_count``),
and :func:`validate_snapshot` checks a payload against the schema — the
CI ``obs`` job runs it on every exported snapshot.
"""

from __future__ import annotations

import json

import numpy as np

from .metrics import Counter, Gauge, Histogram, MetricsRegistry

__all__ = [
    "SNAPSHOT_SCHEMA_VERSION",
    "snapshot",
    "render_json",
    "render_prometheus",
    "validate_snapshot",
]

SNAPSHOT_SCHEMA_VERSION = 1


def _histogram_entry(h: Histogram) -> dict:
    nonzero = np.flatnonzero(h.counts)
    return {
        "count": h.count,
        "sum": h.sum,
        "min": h.min if h.count else None,
        "max": h.max if h.count else None,
        "p50": h.quantile(50) if h.count else None,
        "p95": h.quantile(95) if h.count else None,
        "p99": h.quantile(99) if h.count else None,
        "lo": h.lo,
        "hi": h.hi,
        "growth": h.growth,
        "nonzero_buckets": [
            [int(i), int(h.counts[i])] for i in nonzero
        ],
    }


def snapshot(reg: MetricsRegistry) -> dict:
    """Freeze a registry into a schema-versioned plain dict.

    Histograms serialise sparsely: lattice parameters plus the non-empty
    buckets only, so a 1000-bucket latency histogram with 30 occupied
    buckets costs 30 pairs, not 1000 floats.
    """
    counters = {}
    gauges = {}
    histograms = {}
    for name in reg.names():
        metric = reg.get(name)
        if isinstance(metric, Counter):
            counters[name] = {"value": metric.value, "help": metric.help}
        elif isinstance(metric, Gauge):
            gauges[name] = {"value": metric.value, "help": metric.help}
        elif isinstance(metric, Histogram):
            entry = _histogram_entry(metric)
            entry["help"] = metric.help
            histograms[name] = entry
    return {
        "schema_version": SNAPSHOT_SCHEMA_VERSION,
        "counters": counters,
        "gauges": gauges,
        "histograms": histograms,
    }


def render_json(reg: MetricsRegistry) -> str:
    """Canonical JSON snapshot (sorted keys, stable across processes)."""
    return json.dumps(snapshot(reg), sort_keys=True, indent=2)


def _prom_name(name: str) -> str:
    return "repro_" + name.replace(".", "_")


def render_prometheus(reg: MetricsRegistry) -> str:
    """Prometheus text exposition of the registry.

    Histograms emit cumulative ``_bucket`` samples at each occupied
    bucket's upper edge plus the mandatory ``+Inf`` bucket — sparse but
    valid, since exposition bucket boundaries need not be exhaustive.
    """
    lines: list[str] = []
    for name in reg.names():
        metric = reg.get(name)
        prom = _prom_name(name)
        if metric.help:
            lines.append(f"# HELP {prom} {metric.help}")
        if isinstance(metric, Counter):
            lines.append(f"# TYPE {prom} counter")
            lines.append(f"{prom} {metric.value}")
        elif isinstance(metric, Gauge):
            lines.append(f"# TYPE {prom} gauge")
            lines.append(f"{prom} {metric.value}")
        elif isinstance(metric, Histogram):
            lines.append(f"# TYPE {prom} histogram")
            cumulative = np.cumsum(metric.counts)
            for i in np.flatnonzero(metric.counts):
                if i < metric.edges.size:
                    lines.append(
                        f'{prom}_bucket{{le="{metric.edges[i]:.6g}"}} '
                        f"{int(cumulative[i])}"
                    )
            lines.append(f'{prom}_bucket{{le="+Inf"}} {metric.count}')
            lines.append(f"{prom}_sum {metric.sum}")
            lines.append(f"{prom}_count {metric.count}")
    return "\n".join(lines) + "\n"


def validate_snapshot(payload: dict) -> list[str]:
    """Schema-check a snapshot dict; returns a list of problems (empty = ok)."""
    errors: list[str] = []
    if not isinstance(payload, dict):
        return ["snapshot payload is not a dict"]
    version = payload.get("schema_version")
    if version != SNAPSHOT_SCHEMA_VERSION:
        errors.append(
            f"schema_version {version!r} != {SNAPSHOT_SCHEMA_VERSION}"
        )
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(payload.get(section), dict):
            errors.append(f"missing or non-dict section {section!r}")
    if errors:
        return errors
    for name, entry in payload["counters"].items():
        if not isinstance(entry.get("value"), int) or entry["value"] < 0:
            errors.append(f"counter {name!r} value must be a non-negative int")
    for name, entry in payload["gauges"].items():
        if not isinstance(entry.get("value"), (int, float)):
            errors.append(f"gauge {name!r} value must be numeric")
    for name, entry in payload["histograms"].items():
        if not isinstance(entry.get("count"), int) or entry["count"] < 0:
            errors.append(f"histogram {name!r} count must be a non-negative int")
            continue
        buckets = entry.get("nonzero_buckets")
        if not isinstance(buckets, list) or not all(
            isinstance(b, list)
            and len(b) == 2
            and isinstance(b[0], int)
            and isinstance(b[1], int)
            for b in buckets
        ):
            errors.append(
                f"histogram {name!r} nonzero_buckets must be [index, count] pairs"
            )
            continue
        if sum(b[1] for b in buckets) != entry["count"]:
            errors.append(
                f"histogram {name!r} bucket counts do not sum to count"
            )
    return errors

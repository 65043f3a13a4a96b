"""Vectorized metric primitives: counters, gauges, log-bucketed histograms.

The serving paper's evaluation is tail-latency driven (P99 < 20 ms
end-to-end), so the histogram here is built for exactly that query: a
log-spaced bucket lattice whose :meth:`Histogram.observe_many` folds an
entire latency array in ONE ``searchsorted`` + ``bincount`` pass — no
per-sample Python — while quantile reads stay exact to within one bucket
width (ratio ``growth`` between adjacent edges).

A :class:`MetricsRegistry` is a plain object its caller builds: there is
no process-wide instance.  Components own their counts in their own
reports and logs; an exporter (``python -m repro.obs``) builds a registry
from those when it wants metric-shaped output.

Metric names are lowercase dotted literals (``plane.component.metric``),
enforced both here at creation time and statically by the
``obs-discipline`` lint rule.
"""

from __future__ import annotations

import math
import re

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)+$")


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(
            f"metric name {name!r} must be a lowercase dotted identifier "
            "like 'serving.latency_ms'"
        )
    return name


class Counter:
    """Monotonically increasing integer count.

    Callers :meth:`add` a batch total (``rows.size``, a mask ``sum()``),
    one call per batch rather than one per item.
    """

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = _check_name(name)
        self.help = help
        self.value = 0

    def add(self, n: int) -> None:
        """Add a (non-negative) batch total to the counter."""
        n = int(n)
        if n < 0:
            raise ValueError("counters only go up")
        self.value += n

    def reset(self) -> None:
        """Zero the count in place (object identity is preserved)."""
        self.value = 0


class Gauge:
    """Last-written instantaneous value (store version, resident rows...)."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = _check_name(name)
        self.help = help
        self.value = 0.0

    def set(self, value: float) -> None:
        """Overwrite the gauge with the current reading."""
        self.value = float(value)

    def reset(self) -> None:
        """Reset the reading to 0.0 in place."""
        self.value = 0.0


class Histogram:
    """Log-bucketed distribution with a single-``bincount`` batch path.

    Bucket edges form a geometric lattice ``lo * growth**k`` covering
    ``[lo, hi]``; values at or below ``lo`` land in the underflow bucket,
    values above the last edge in the overflow bucket.  Because adjacent
    edges differ by the factor ``growth = 1.02``, any quantile read is
    exact to within one bucket width, 2% relative error (validated
    against ``np.percentile`` in the tests).

    Args:
        name: lowercase dotted metric name.
        help: one-line description for exporters.
        lo: smallest resolvable value (first bucket edge).
        hi: lattice upper bound; larger observations are exact only in
            ``count``/``sum``/``max``.
    """

    __slots__ = (
        "name",
        "help",
        "lo",
        "hi",
        "growth",
        "edges",
        "counts",
        "count",
        "sum",
        "_min",
        "_max",
    )

    def __init__(
        self,
        name: str,
        help: str = "",
        lo: float = 1e-3,
        hi: float = 1e7,
    ) -> None:
        if lo <= 0 or hi <= lo:
            raise ValueError("need 0 < lo < hi")
        self.name = _check_name(name)
        self.help = help
        self.lo = float(lo)
        self.hi = float(hi)
        self.growth = 1.02
        num_edges = int(math.ceil(math.log(hi / lo) / math.log(self.growth))) + 1
        self.edges = self.lo * self.growth ** np.arange(
            num_edges, dtype=np.float64
        )
        # counts[0] is the underflow bucket (values <= edges[0]);
        # counts[i] covers (edges[i-1], edges[i]]; counts[-1] is overflow.
        self.counts = np.zeros(num_edges + 1, dtype=np.int64)
        self.count = 0
        self.sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe_many(self, values: np.ndarray) -> None:
        """Fold a whole array of observations in one bincount pass."""
        values = np.asarray(values, dtype=np.float64).ravel()
        if values.size == 0:
            return
        idx = np.searchsorted(self.edges, values, side="left")
        self.counts += np.bincount(idx, minlength=self.counts.size)
        self.count += int(values.size)
        self.sum += float(values.sum())
        self._min = min(self._min, float(values.min()))
        self._max = max(self._max, float(values.max()))

    def observe(self, value: float) -> None:
        """Scalar convenience; hot modules must batch via observe_many."""
        self.observe_many(np.array([value], dtype=np.float64))

    @property
    def min(self) -> float:
        """Smallest observation, or NaN before any data."""
        return self._min if self.count else float("nan")

    @property
    def max(self) -> float:
        """Largest observation, or NaN before any data."""
        return self._max if self.count else float("nan")

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations, or NaN before any data."""
        return self.sum / self.count if self.count else float("nan")

    def quantile(self, q: float) -> float:
        """Value at percentile ``q`` (0-100), exact within one bucket.

        The estimate is the upper edge of the bucket holding the q-th
        order statistic, clamped into the observed ``[min, max]`` range —
        so constant streams read back exactly, and any estimate is within
        a factor ``growth`` of the true order statistic inside the
        lattice range.
        """
        if not 0 <= q <= 100:
            raise ValueError("percentile must be in [0, 100]")
        if self.count == 0:
            return float("nan")
        rank = max(1, int(math.ceil(q / 100.0 * self.count)))
        cum = np.cumsum(self.counts)
        bucket = int(np.searchsorted(cum, rank, side="left"))
        if bucket == 0:  # underflow: everything here is <= edges[0]
            estimate = self._min
        elif bucket >= self.edges.size:  # overflow bucket
            estimate = self._max
        else:
            estimate = float(self.edges[bucket])
        return float(min(max(estimate, self._min), self._max))

    def reset(self) -> None:
        """Zero all buckets and running moments in place."""
        self.counts[:] = 0
        self.count = 0
        self.sum = 0.0
        self._min = math.inf
        self._max = -math.inf


class MetricsRegistry:
    """Get-or-create registry of named metrics.

    The first ``counter("a.b")`` creates, every later call returns the
    same object, so a caller may hold handles.  Requesting an existing
    name as a different kind raises.  :meth:`reset` zeroes values *in
    place* so held handles stay live.
    """

    __slots__ = ("_metrics",)

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get_or_create(self, name, kind, make):
        """The metric called ``name``, made by ``make()`` if it is new."""
        metric = self._metrics.get(name)
        if metric is not None:
            if not isinstance(metric, kind):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}, not {kind.__name__}"
                )
            return metric
        metric = self._metrics[name] = make()
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create the :class:`Counter` called ``name``."""
        return self._get_or_create(name, Counter, lambda: Counter(name, help))

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create the :class:`Gauge` called ``name``."""
        return self._get_or_create(name, Gauge, lambda: Gauge(name, help))

    def histogram(
        self,
        name: str,
        help: str = "",
        lo: float = 1e-3,
        hi: float = 1e7,
    ) -> Histogram:
        """Get or create the :class:`Histogram` called ``name``.

        Lattice parameters apply on first creation only; later lookups
        return the existing histogram unchanged.
        """
        return self._get_or_create(
            name, Histogram, lambda: Histogram(name, help, lo, hi)
        )

    def names(self) -> list[str]:
        """All registered metric names, sorted."""
        return sorted(self._metrics)

    def get(self, name: str) -> Counter | Gauge | Histogram:
        """The metric registered under ``name`` (KeyError if absent)."""
        return self._metrics[name]

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def reset(self) -> None:
        """Zero every metric in place; handles held elsewhere stay valid."""
        for metric in self._metrics.values():
            metric.reset()

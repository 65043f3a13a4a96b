"""QoS / SLA monitoring for the serving path.

Tracks per-window latency percentiles against the paper's SLAs (P99 < 20 ms
end-to-end; < 10 ms GPU inference time in the evaluation's stress setting)
and provides the measurement window Algorithm 2 consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..hardware.latency import percentile

__all__ = ["OUTCOMES", "SLAReport", "SLAMonitor"]

#: Request outcome classes, in their fixed code order.  ``clean`` is a
#: plain successful answer; everything else records *how* the request
#: deviated — a hedged answer is still correct but cost a backup read, a
#: degraded one served stale-but-accounted state, ``timed_out`` and
#: ``shed`` returned no answer at all.  Tail latency alone cannot
#: distinguish "fast because healthy" from "fast because we gave up",
#: so the monitor counts these separately from the percentiles.
OUTCOMES = ("clean", "hedged", "degraded", "timed_out", "shed")

_OUTCOME_INDEX = {name: i for i, name in enumerate(OUTCOMES)}


@dataclass
class SLAReport:
    """Latency summary of one monitoring window.

    The ``num_*`` outcome counts partition ``num_requests``: every
    request in the window is exactly one of clean, hedged, degraded,
    timed-out, or shed.
    """

    window_id: int
    p50_ms: float
    p95_ms: float
    p99_ms: float
    violated: bool
    num_requests: int
    num_clean: int = 0
    num_hedged: int = 0
    num_degraded: int = 0
    num_timed_out: int = 0
    num_shed: int = 0


class SLAMonitor:
    """Sliding-window tail-latency monitor.

    :attr:`reports` is the one record of what the monitor saw: each
    closed window's percentiles, its SLA verdict and its per-outcome
    request counts.  Percentiles come from the window's raw samples, so
    report values are bit-identical to the original per-value monitor
    (pinned by ``tests/test_serving.py``).

    Args:
        p99_target_ms: SLA threshold (paper stress setting: 10 ms).
        window_requests: samples per monitoring window.
    """

    def __init__(
        self, p99_target_ms: float = 10.0, window_requests: int = 5000
    ) -> None:
        if p99_target_ms <= 0:
            raise ValueError("SLA target must be positive")
        self.p99_target_ms = p99_target_ms
        self.window_requests = window_requests
        self._current = np.empty(0, dtype=np.float64)
        self._current_codes = np.empty(0, dtype=np.int64)
        self.reports: list[SLAReport] = []
        self._window_id = 0

    def observe(
        self,
        latencies_ms: np.ndarray,
        outcomes: list[str] | np.ndarray | None = None,
    ) -> list[SLAReport]:
        """Feed request latencies; returns any windows completed by them.

        The pending tail and the incoming burst are sliced into
        ``window_requests``-sized windows in one pass — each completed
        window still produces its own :class:`SLAReport`, exactly as the
        per-value loop did.

        Parameters
        ----------
        latencies_ms : numpy.ndarray
            End-to-end request latencies.
        outcomes : sequence of str, optional
            One :data:`OUTCOMES` class per latency (``"clean"``,
            ``"hedged"``, ``"degraded"``, ``"timed_out"``, ``"shed"``).
            Omitted means all clean — the pre-resilience behaviour, and
            bit-identical reports to it.
        """
        values = np.asarray(latencies_ms, dtype=np.float64).ravel()
        if values.size == 0:
            return []
        if outcomes is None:
            codes = np.zeros(values.size, dtype=np.int64)
        else:
            codes = np.asarray(
                [_OUTCOME_INDEX[o] for o in outcomes], dtype=np.int64
            )
            if codes.size != values.size:
                raise ValueError(
                    f"{codes.size} outcomes for {values.size} latencies"
                )
        buf = (
            np.concatenate((self._current, values))
            if self._current.size
            else values
        )
        code_buf = (
            np.concatenate((self._current_codes, codes))
            if self._current_codes.size
            else codes
        )
        w = self.window_requests
        n_complete = buf.size // w
        completed = [
            self._close_window(
                buf[i * w : (i + 1) * w], code_buf[i * w : (i + 1) * w]
            )
            for i in range(n_complete)
        ]
        self._current = buf[n_complete * w :].copy()
        self._current_codes = code_buf[n_complete * w :].copy()
        return completed

    def _close_window(
        self, samples: np.ndarray, codes: np.ndarray
    ) -> SLAReport:
        self._window_id += 1
        p99 = percentile(samples, 99)
        counts = np.bincount(codes, minlength=len(OUTCOMES))
        report = SLAReport(
            window_id=self._window_id,
            p50_ms=percentile(samples, 50),
            p95_ms=percentile(samples, 95),
            p99_ms=p99,
            violated=bool(p99 > self.p99_target_ms),
            num_requests=samples.size,
            num_clean=int(counts[0]),
            num_hedged=int(counts[1]),
            num_degraded=int(counts[2]),
            num_timed_out=int(counts[3]),
            num_shed=int(counts[4]),
        )
        self.reports.append(report)
        return report

    @property
    def violation_rate(self) -> float:
        if not self.reports:
            return 0.0
        return sum(r.violated for r in self.reports) / len(self.reports)

"""Clock sources for the tracing layer: simulated or monotonic-wall.

A :class:`~repro.obs.trace.Tracer` timestamps spans off whichever clock
it is handed.  Inside a simulation the clock is a :class:`SimClock`
advanced by modelled durations (e.g. the alpha-beta transfer seconds a
``ShardClient`` flush reports), which makes trace dumps byte-identical
across hosts and processes — the same property the ``no-wallclock-in-sim``
lint rule protects.  Outside a simulation :class:`WallClock` reads
``time.perf_counter`` (monotonic compute time, explicitly allowed by that
rule) so real benchmarks still get real durations.
"""

from __future__ import annotations

import time

__all__ = ["SimClock", "WallClock"]


class SimClock:
    """Manually advanced simulated clock.

    Time starts at 0 and only moves when the simulation says so:
    :meth:`advance` adds a
    modelled duration, :meth:`set` jumps forward to an absolute point on
    the timeline (e.g. a ``cluster.timeline`` event's ``started_s``).
    Moving backwards raises — a simulated timeline is monotone.
    """

    __slots__ = ("_now",)

    def __init__(self) -> None:
        self._now = 0.0

    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Move time forward by a modelled duration; returns the new now."""
        if seconds < 0:
            raise ValueError("simulated time cannot move backwards")
        self._now += float(seconds)
        return self._now

    def set(self, t: float) -> float:
        """Jump to absolute time ``t`` (>= now); returns the new now."""
        t = float(t)
        if t < self._now:
            raise ValueError("simulated time cannot move backwards")
        self._now = t
        return self._now


class WallClock:
    """Monotonic real-time clock for non-simulated measurement.

    Reads ``time.perf_counter`` — a duration-only monotonic source, which
    the ``no-wallclock-in-sim`` lint rule permits (unlike ``time.time``).
    It has no :meth:`SimClock.advance`; ``Tracer.advance`` is a no-op on
    wall clocks, so instrumented code can advance unconditionally.
    """

    __slots__ = ()

    def now(self) -> float:
        """Monotonic seconds from an arbitrary process-local origin."""
        return time.perf_counter()

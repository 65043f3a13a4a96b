"""The simulated clock.

Inside a simulation time is advanced by modelled durations (the
alpha-beta transfer seconds of a per-shard RPC, a retry's backoff), never
read off the host, which keeps replays byte-identical across hosts and
processes — the same property the ``no-wallclock-in-sim`` lint rule
protects.
"""

from __future__ import annotations

__all__ = ["SimClock"]


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

"""Discrete-event simulator of model-update timelines (Fig. 8).

Each strategy is described by when it *starts* an update and how long that
update takes to land on inference nodes.  The simulator plays an hour (or
any horizon) of wall-clock time and reports, for every instant, which model
version is serving — from which freshness metrics (average/max staleness,
number of versions delivered) follow directly.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

__all__ = ["UpdateEvent", "UpdateTimeline", "simulate_periodic_updates"]

#: Sampling step of the average/max staleness integrals.
_RESOLUTION_S = 10.0


@dataclass(frozen=True)
class UpdateEvent:
    """One update landing on the serving fleet."""

    started_s: float
    applied_s: float
    version: int
    kind: str  # "full" | "delta" | "lora"
    volume_bytes: float = 0.0

    @property
    def duration_s(self) -> float:
        return self.applied_s - self.started_s


@dataclass
class UpdateTimeline:
    """A horizon of update events plus freshness accounting.

    ``data_time(t)`` — the trained-up-to timestamp of the parameters serving
    at time ``t`` — is what recommendation staleness actually measures: an
    update that *started* at s and applied at ``a`` serves data as-of ``s``.
    """

    horizon_s: float
    events: list[UpdateEvent] = field(default_factory=list)

    def add(self, event: UpdateEvent) -> None:
        if event.applied_s < event.started_s:
            raise ValueError("update applied before it started")
        self.events.append(event)
        self.events.sort(key=lambda e: e.applied_s)

    def data_time(self, t: float) -> float:
        """Training-data timestamp of the parameters serving at ``t``."""
        times = [e.applied_s for e in self.events]
        idx = bisect.bisect_right(times, t)
        return self.events[idx - 1].started_s if idx else 0.0

    def staleness_at(self, t: float) -> float:
        return t - self.data_time(t)

    def _sampled_staleness(self) -> list[float]:
        """Staleness every ``_RESOLUTION_S`` over the horizon."""
        steps = int(self.horizon_s / _RESOLUTION_S)
        return [self.staleness_at(i * _RESOLUTION_S) for i in range(steps)]

    def average_staleness(self) -> float:
        """Time-averaged staleness over the horizon."""
        samples = self._sampled_staleness()
        return sum(samples) / len(samples) if samples else 0.0

    def max_staleness(self) -> float:
        return max(self._sampled_staleness(), default=0.0)

    @property
    def updates_delivered(self) -> int:
        return len([e for e in self.events if e.applied_s <= self.horizon_s])

    @property
    def total_update_seconds(self) -> float:
        """Aggregate time spent performing updates (Fig. 14's metric)."""
        return sum(
            e.duration_s for e in self.events if e.applied_s <= self.horizon_s
        )


def simulate_periodic_updates(
    horizon_s: float,
    interval_s: float,
    update_duration_s: float,
    kind: str,
    volume_bytes: float = 0.0,
) -> UpdateTimeline:
    """Play a periodic update schedule.

    Updates start every ``interval_s``; each takes ``update_duration_s`` to
    land, and a new update cannot start until the previous one has been
    applied (the back-pressure that makes DeltaUpdate fall behind at
    5-minute cadence in Fig. 14).
    """
    if interval_s <= 0 or horizon_s <= 0:
        raise ValueError("interval and horizon must be positive")
    timeline = UpdateTimeline(horizon_s=horizon_s)
    version = 0
    next_start = interval_s
    busy_until = 0.0
    while next_start <= horizon_s:
        start = max(next_start, busy_until)
        if start > horizon_s:
            break
        applied = start + update_duration_s
        version += 1
        timeline.add(
            UpdateEvent(
                started_s=start,
                applied_s=applied,
                version=version,
                kind=kind,
                volume_bytes=volume_bytes,
            )
        )
        busy_until = applied
        next_start += interval_s
    return timeline

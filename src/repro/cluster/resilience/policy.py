"""One knob object wiring the whole resilience plane together.

:class:`ResiliencePolicy` bundles the pieces a resilient client needs —
deadline, retry schedule, hedging trigger, per-replica breakers, health
tracker, degraded-read cache, and the simulated clock they all share —
so call sites take a single optional argument instead of seven.  The
policy owns per-shard :class:`~repro.cluster.resilience.breaker.\
CircuitBreaker` instances (created on first contact, so breaker state
survives across pulls) and exposes their aggregate state: how many
breakers are currently open, how many transitions the fleet has logged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ...obs.clock import SimClock
from .breaker import BreakerConfig, CircuitBreaker
from .degraded import DegradedReadMode
from .health import HealthTracker
from .hedge import HedgedRead
from .retry import RetryPolicy

__all__ = ["ResiliencePolicy"]


@dataclass
class ResiliencePolicy:
    """Client-side resilience configuration and shared runtime state.

    Parameters
    ----------
    deadline_s : float, optional
        Total simulated-latency budget per pull, all attempts included.
    attempt_timeout_s : float, optional
        Cap on any single modelled RPC attempt.
    retry : RetryPolicy, optional
        Backoff schedule between pull rounds.
    hedge : HedgedRead, optional
        Backup-read trigger policy.
    breaker : BreakerConfig, optional
        Thresholds applied to every per-shard breaker.
    health : HealthTracker, optional
        Shared latency/error signals; created fresh when omitted.
    degraded : DegradedReadMode or None, optional
        Last-synced row cache for degraded serving.  ``None`` disables
        degraded mode: exhausting the replicas raises instead.
    clock : SimClock, optional
        The simulated timeline everything is stamped against.
    on_wait : callable, optional
        ``on_wait(now_s)`` hook invoked after each retry backoff — wire
        it to ``FaultPlane.advance_to`` so scheduled faults heal (or
        land) while the client is waiting, exactly as they would in
        wall-clock time.
    """

    deadline_s: float = 10.0
    attempt_timeout_s: float = 2.0
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    hedge: HedgedRead = field(default_factory=HedgedRead)
    breaker: BreakerConfig = field(default_factory=BreakerConfig)
    health: HealthTracker = field(default_factory=HealthTracker)
    degraded: DegradedReadMode | None = field(default_factory=DegradedReadMode)
    clock: SimClock = field(default_factory=SimClock)
    on_wait: Callable[[float], None] | None = None

    def __post_init__(self) -> None:
        if self.deadline_s <= 0.0:
            raise ValueError("deadline_s must be positive")
        if self.attempt_timeout_s <= 0.0:
            raise ValueError("attempt_timeout_s must be positive")
        self._breakers: dict[int, CircuitBreaker] = {}

    def breaker_for(self, shard_id: int) -> CircuitBreaker:
        """The (lazily created) breaker guarding one shard replica."""
        shard_id = int(shard_id)
        got = self._breakers.get(shard_id)
        if got is None:
            got = CircuitBreaker(self.breaker)
            self._breakers[shard_id] = got
        return got

    def wait(self, seconds: float) -> float:
        """Advance the shared clock and fire :attr:`on_wait`; returns now."""
        now = self.clock.advance(seconds)
        if self.on_wait is not None:
            self.on_wait(now)
        return now

"""Client-plane resilience: deadlines, retries, hedging, breakers, degraded reads.

The shard store's server plane already survives faults (replication,
quorums, repair); this package makes the *client* survive them without
surfacing every hiccup to the caller:

* :class:`RetryPolicy` — capped exponential backoff with seeded,
  replayable jitter;
* :class:`CircuitBreaker` — per-replica closed/open/half-open machine
  with byte-identical transition logs across processes;
* :class:`HealthTracker` — EWMA latency and error rate per replica,
  feeding breaker decisions and replica-selection order;
* :class:`HedgedRead` — backup pull against the next replica owner when
  the primary exceeds a learned latency quantile;
* :class:`DegradedReadMode` — bounded-staleness serving from the
  client's last-synced rows when no replica answers in time, with
  explicit per-row staleness accounting instead of a silent lie.

:class:`ResiliencePolicy` bundles them behind one optional argument on
:class:`~repro.cluster.shardstore.client.ShardClient`.
"""

from .breaker import CLOSED, HALF_OPEN, OPEN, BreakerConfig, CircuitBreaker
from .degraded import DegradedReadMode, StaleRead
from .errors import DegradedReadError, ResilienceError
from .health import HealthTracker
from .hedge import HedgedRead
from .policy import ResiliencePolicy
from .retry import RetryPolicy

__all__ = [
    "BreakerConfig",
    "CircuitBreaker",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "DegradedReadError",
    "DegradedReadMode",
    "HealthTracker",
    "HedgedRead",
    "ResilienceError",
    "ResiliencePolicy",
    "RetryPolicy",
    "StaleRead",
]

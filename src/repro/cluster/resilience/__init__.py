"""Client-plane resilience: deadlines, retries, hedging, breakers.

The shard store's server plane already survives faults (replication,
quorums, repair); this package makes the *client* survive them without
surfacing every hiccup to the caller:

* capped exponential retry backoff with seeded, replayable jitter
  (:func:`~repro.cluster.resilience.policy.backoff_s`);
* :class:`CircuitBreaker` — per-replica closed/open/half-open machine
  with byte-identical transition logs across processes;
* :class:`HealthTracker` — EWMA latency and error rate per replica,
  feeding breaker decisions and replica-selection order;
* hedged reads — a backup pull against the next replica owner when the
  primary exceeds a learned latency quantile
  (:meth:`ResiliencePolicy.hedge_delay_s`).

The budgets are module constants (``policy.DEADLINE_S``,
``breaker.BREAKER_WINDOW``, ...); :class:`ResiliencePolicy` is the
runtime state one resilient
:class:`~repro.cluster.shardstore.client.ShardClient` carries.  A pull
the replicas cannot answer exactly comes back ``degraded=True`` with no
rows and the sync point unmoved, so the caller keeps serving what it
last applied; a client without a policy raises
:class:`DegradedReadError` instead.
"""

from .breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from .errors import DegradedReadError, ResilienceError
from .health import HealthTracker
from .policy import ResiliencePolicy

__all__ = [
    "CircuitBreaker",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "DegradedReadError",
    "HealthTracker",
    "ResilienceError",
    "ResiliencePolicy",
]

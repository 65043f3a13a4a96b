"""The resilient client's shared runtime state and its fixed budgets.

:class:`ResiliencePolicy` carries what a resilient
:class:`~repro.cluster.shardstore.client.ShardClient` accumulates across
pulls — the simulated clock, per-shard :class:`~repro.cluster.\
resilience.breaker.CircuitBreaker` instances (created on first contact,
so breaker state survives across pulls) and the
:class:`~repro.cluster.resilience.health.HealthTracker`.  The budgets
every pull runs under are module constants, not options.

Retry storms synchronize without jitter, but unseeded jitter would make
chaos replays irreproducible (and trip the ``no-unseeded-rng`` lint
rule).  :func:`backoff_s` derives its jitter from
:func:`repro.core.kernels.hash_combine` over ``(key, attempt,
JITTER_SEED)``: every (client, attempt) pair gets a different backoff,
yet every process replays the same schedule bit-for-bit.

Hedged reads are the tail-latency killer from "The Tail at Scale":
instead of waiting out a slow primary, launch one backup read against
the next replica owner once the primary has been in flight longer than
a learned quantile of healthy latencies (:meth:`ResiliencePolicy.\
hedge_delay_s`), and take whichever answer lands first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from ...core.kernels import hash_combine
from ...obs.clock import SimClock
from .breaker import CircuitBreaker
from .health import HealthTracker

__all__ = ["ResiliencePolicy"]

#: Total simulated-latency budget per pull, all attempts included.
DEADLINE_S = 10.0
#: Cap on any single modelled RPC attempt.
ATTEMPT_TIMEOUT_S = 2.0
#: Pull rounds (and flush attempts) per operation, first try included.
MAX_ATTEMPTS = 3
#: Backoff before the second attempt (simulated seconds).
BASE_BACKOFF_S = 0.05
#: Exponential growth factor per further attempt.
BACKOFF_MULTIPLIER = 2.0
#: Cap on any single backoff.
MAX_BACKOFF_S = 2.0
#: Fraction of the backoff randomized away: a wait lands in
#: ``[backoff * (1 - JITTER_FRAC), backoff]``.
JITTER_FRAC = 0.5
#: Jitter stream selector.
JITTER_SEED = 0
#: Healthy-latency quantile the primary must exceed before the hedge
#: fires (0.95 hedges ~5% of requests in steady state).
HEDGE_QUANTILE = 0.95
#: Floor under the hedge delay, so a very tight latency distribution
#: cannot make every request hedge instantly.
HEDGE_MIN_DELAY_S = 1e-4

_TWO64 = float(2**64)


def backoff_s(attempt: int, key: int = 0) -> float:
    """Wait before retry number ``attempt`` (1 = after the first try).

    Capped exponential with deterministic jitter: ``BASE_BACKOFF_S *
    BACKOFF_MULTIPLIER**(attempt-1)``, clamped to ``MAX_BACKOFF_S``, then
    shrunk by up to ``JITTER_FRAC`` using a seeded draw for ``(key,
    attempt)`` — never an unseeded RNG.
    """
    if attempt < 1:
        raise ValueError("attempt numbers start at 1")
    raw = min(BASE_BACKOFF_S * BACKOFF_MULTIPLIER ** (attempt - 1), MAX_BACKOFF_S)
    mixed = hash_combine(
        np.asarray([key], dtype=np.int64), np.uint64(attempt), JITTER_SEED
    )
    return raw * (1.0 - JITTER_FRAC * (float(mixed[0]) / _TWO64))


@dataclass
class ResiliencePolicy:
    """Shared runtime state of one resilient client.

    It takes no arguments: ``clock`` is the simulated timeline every
    backoff, hedge and breaker transition is stamped against, and it
    starts at 0 with the policy.
    """

    clock: SimClock = field(default_factory=SimClock, init=False)
    health: HealthTracker = field(default_factory=HealthTracker, init=False)
    _breakers: dict[int, CircuitBreaker] = field(default_factory=dict, init=False)

    def breaker_for(self, shard_id: int) -> CircuitBreaker:
        """The (lazily created) breaker guarding one shard replica."""
        shard_id = int(shard_id)
        got = self._breakers.get(shard_id)
        if got is None:
            got = CircuitBreaker()
            self._breakers[shard_id] = got
        return got

    def hedge_delay_s(self) -> float:
        """How long to wait on a primary before hedging.

        ``inf`` while the tracker has no successful-latency history — a
        cold client has no baseline to call a primary "slow" against —
        and self-calibrating after that, as the fleet's latency
        distribution moves.
        """
        return max(HEDGE_MIN_DELAY_S, self.health.latency_quantile(HEDGE_QUANTILE))

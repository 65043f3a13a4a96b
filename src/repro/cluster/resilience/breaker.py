"""Per-replica circuit breakers on the simulated clock.

A :class:`CircuitBreaker` guards one shard replica with the classic
three-state machine::

        failure rate over the last
        BREAKER_WINDOW outcomes >= BREAKER_FAILURE_RATE
    CLOSED ----------------------------> OPEN
      ^                                   |
      | BREAKER_CLOSE_AFTER probe         | BREAKER_COOLDOWN_S elapses
      | successes                         | on the sim clock (lazy,
      |                                   v stamped at the boundary)
      +------------- probe ---------- HALF_OPEN
                     failure  ----------> OPEN (cooldown restarts)

Everything is driven by explicit ``now_s`` arguments (simulated seconds,
never wall time), and every transition is recorded as ``(at_s, from,
to)`` in :attr:`CircuitBreaker.transitions` — the chaos suites replay a
schedule in two processes and require the transition logs to be
byte-identical.
"""

from __future__ import annotations

__all__ = ["CircuitBreaker", "CLOSED", "OPEN", "HALF_OPEN"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: Recent outcomes considered for the failure rate.
BREAKER_WINDOW = 8
#: Outcomes required before the rate can trip the breaker.
BREAKER_MIN_SAMPLES = 3
#: Failure fraction at or above which the breaker opens.
BREAKER_FAILURE_RATE = 0.5
#: Simulated seconds an open breaker waits before probing.
BREAKER_COOLDOWN_S = 1.0
#: Concurrent trial requests admitted while half-open.
BREAKER_HALF_OPEN_PROBES = 1
#: Probe successes required to close again.
BREAKER_CLOSE_AFTER = 1


class CircuitBreaker:
    """Closed/open/half-open breaker for one shard replica.

    The ``BREAKER_*`` thresholds are deliberately twitchy (small window)
    because one modelled RPC stands for a whole batched round trip.

    Notes
    -----
    The open -> half-open transition is *lazy*: it materializes when any
    method first observes a ``now_s`` past the cooldown boundary, but it
    is timestamped at the boundary itself (``opened_at + BREAKER_COOLDOWN_S``),
    so the transition log is independent of the caller's polling times.
    """

    def __init__(self) -> None:
        self._state = CLOSED
        self._outcomes: list[bool] = []
        self._opened_at = 0.0
        self._probes_in_flight = 0
        self._probe_successes = 0
        self.transitions: list[tuple[float, str, str]] = []

    # ----------------------------------------------------------------- state
    def state(self, now_s: float) -> str:
        """Current state at simulated time ``now_s``."""
        self._tick(now_s)
        return self._state

    def _tick(self, now_s: float) -> None:
        boundary = self._opened_at + BREAKER_COOLDOWN_S
        if self._state == OPEN and now_s >= boundary:
            self._transition(boundary, HALF_OPEN)
            self._probes_in_flight = 0
            self._probe_successes = 0

    def _transition(self, at_s: float, new_state: str) -> None:
        self.transitions.append((float(at_s), self._state, new_state))
        self._state = new_state

    # ------------------------------------------------------------- decisions
    def allow(self, now_s: float) -> bool:
        """Whether a request may be sent to this replica at ``now_s``.

        Closed admits everything; open admits nothing; half-open admits
        up to ``BREAKER_HALF_OPEN_PROBES`` trial requests (each ``allow``
        that returns True claims a probe slot until its outcome is
        recorded).
        """
        self._tick(now_s)
        if self._state == CLOSED:
            return True
        if self._state == OPEN:
            return False
        if self._probes_in_flight < BREAKER_HALF_OPEN_PROBES:
            self._probes_in_flight += 1
            return True
        return False

    def record_success(self, now_s: float) -> None:
        """Fold a successful attempt outcome in at time ``now_s``."""
        self._tick(now_s)
        if self._state == HALF_OPEN:
            self._probes_in_flight = max(0, self._probes_in_flight - 1)
            self._probe_successes += 1
            if self._probe_successes >= BREAKER_CLOSE_AFTER:
                self._transition(now_s, CLOSED)
                self._outcomes = []
            return
        if self._state == CLOSED:
            self._push(True, now_s)

    def record_failure(self, now_s: float) -> None:
        """Fold a failed attempt outcome in at time ``now_s``."""
        self._tick(now_s)
        if self._state == HALF_OPEN:
            self._probes_in_flight = max(0, self._probes_in_flight - 1)
            self._transition(now_s, OPEN)
            self._opened_at = now_s
            return
        if self._state == CLOSED:
            self._push(False, now_s)

    def _push(self, ok: bool, now_s: float) -> None:
        self._outcomes.append(ok)
        if len(self._outcomes) > BREAKER_WINDOW:
            del self._outcomes[0]
        n = len(self._outcomes)
        failures = n - sum(self._outcomes)
        if n >= BREAKER_MIN_SAMPLES and failures / n >= BREAKER_FAILURE_RATE:
            self._transition(now_s, OPEN)
            self._opened_at = now_s
            self._outcomes = []

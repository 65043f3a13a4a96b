"""Per-replica health tracking: EWMA latency, error rate, quantiles.

One :class:`HealthTracker` per client observes every modelled RPC attempt
(shard, latency, outcome) and distills three signals the rest of the
plane consumes:

* **EWMA latency** and **EWMA error rate** per shard — replica selection
  orders backup candidates by them (:meth:`HealthTracker.replica_order`);
* a **global success-latency quantile** over a bounded window of recent
  attempts — the hedging trigger (a resilient pull fires a backup read
  when the primary exceeds it; see :meth:`~repro.cluster.resilience.\
policy.ResiliencePolicy.hedge_delay_s`).

All state is plain floats updated in a fixed order, so two processes
feeding the same observations read byte-identical signals back.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque

__all__ = ["HealthTracker"]

#: EWMA smoothing factor; higher reacts faster.
HEALTH_ALPHA = 0.25
#: Recent successful attempt latencies kept for quantile queries.
HEALTH_WINDOW = 256


class HealthTracker:
    """EWMA latency + error rate per shard replica, plus a global quantile
    over the last ``HEALTH_WINDOW`` healthy attempt latencies."""

    def __init__(self) -> None:
        self._latency: dict[int, float] = {}
        self._error: dict[int, float] = {}
        # The window twice: in arrival order (to evict) and sorted (to read
        # a quantile without sorting).
        self._recent: deque[float] = deque()
        self._sorted: list[float] = []

    def record(
        self,
        shard_id: int,
        latency_s: float,
        ok: bool,
        hedged: bool = False,
    ) -> None:
        """Fold one RPC attempt into the shard's health signals.

        Failed attempts update the error rate and latency both — a
        timeout *is* a latency datapoint — but only successes feed the
        global quantile window (hedging triggers off the healthy
        distribution, not off the failures it exists to route around).
        Attempts that crossed the hedge threshold (``hedged=True``) also
        stay out of the window: they still sharpen the shard's own EWMA,
        but letting a persistently slow replica's latencies into the
        trigger window would ratchet the hedge delay up to the very
        slowness hedging exists to mask, eroding the trigger.
        """
        shard_id = int(shard_id)
        a = HEALTH_ALPHA
        prev = self._latency.get(shard_id)
        self._latency[shard_id] = (
            latency_s if prev is None else (1.0 - a) * prev + a * latency_s
        )
        err = self._error.get(shard_id, 0.0)
        self._error[shard_id] = (1.0 - a) * err + (a if not ok else 0.0)
        if ok and not hedged:
            latency_s = float(latency_s)
            self._recent.append(latency_s)
            insort(self._sorted, latency_s)
            if len(self._recent) > HEALTH_WINDOW:
                oldest = self._recent.popleft()
                del self._sorted[bisect_left(self._sorted, oldest)]

    def ewma_latency_s(self, shard_id: int) -> float:
        """Smoothed attempt latency for one shard (0.0 when unobserved)."""
        return self._latency.get(int(shard_id), 0.0)

    def error_rate(self, shard_id: int) -> float:
        """Smoothed failure fraction for one shard (0.0 when unobserved)."""
        return self._error.get(int(shard_id), 0.0)

    def latency_quantile(self, q: float) -> float:
        """Quantile of recent *successful* attempt latencies.

        Returns ``inf`` while the window is empty, which disables
        hedging until the tracker has seen real traffic — a cold client
        has no baseline to call a primary "slow" against.  Otherwise it
        is ``np.quantile``'s default (linear) quantile, bit for bit, read
        from the sorted window in O(1).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        window = self._sorted
        if not window:
            return float("inf")
        at = (len(window) - 1) * q
        lo = int(at)
        if lo >= len(window) - 1:
            return window[-1]
        a, b = window[lo], window[lo + 1]
        t = at - lo
        # numpy's lerp: from the nearer end, so t = 1 lands on b exactly.
        return a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t)

    def replica_order(self, shard_ids: list[int]) -> list[int]:
        """Candidates ordered healthiest-first, deterministically.

        Sorts by (EWMA error rate, EWMA latency, shard id): the id
        tie-break pins the order bit-for-bit across processes even when
        two replicas are statistically identical (e.g. both unobserved).
        """
        return sorted(
            (int(s) for s in shard_ids),
            key=lambda s: (self.error_rate(s), self.ewma_latency_s(s), s),
        )

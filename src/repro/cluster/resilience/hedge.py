"""Hedged reads: a backup pull when the primary exceeds a latency quantile.

The tail-latency killer from "The Tail at Scale": instead of waiting out
a slow primary, launch one backup read against the next replica owner
once the primary has been in flight longer than a learned quantile of
healthy latencies, and take whichever answer lands first.  The quantile
comes from the client's :class:`~repro.cluster.resilience.health.\
HealthTracker`, so hedging is self-calibrating — it never fires on a
cold client (the quantile is ``inf`` until real traffic is observed) and
adapts as the fleet's latency distribution moves.
"""

from __future__ import annotations

from dataclasses import dataclass

from .health import HealthTracker

__all__ = ["HedgedRead"]


@dataclass(frozen=True)
class HedgedRead:
    """Policy for when to launch a backup read.

    Parameters
    ----------
    quantile : float, optional
        Healthy-latency quantile the primary must exceed before the
        hedge fires (0.95 hedges ~5% of requests in steady state).
    min_delay_s : float, optional
        Floor under the hedge delay, so a very tight latency
        distribution cannot make every request hedge instantly.
    """

    quantile: float = 0.95
    min_delay_s: float = 1e-4

    def __post_init__(self) -> None:
        if not 0.0 < self.quantile < 1.0:
            raise ValueError("quantile must be in (0, 1)")
        if self.min_delay_s < 0.0:
            raise ValueError("min_delay_s cannot be negative")

    def hedge_delay_s(self, health: HealthTracker) -> float:
        """How long to wait on the primary before hedging.

        ``inf`` while the tracker has no successful-latency history —
        hedging only starts once there is a distribution to be an
        outlier of.
        """
        return max(self.min_delay_s, health.latency_quantile(self.quantile))

"""Request arrival processes for serving-load experiments.

Inference latency SLAs are tail metrics, and tails are made by *bursts*:
Section II-B calls out "unpredictable request bursts" as a core serving
challenge.  This module generates request arrival timelines — Poisson base
load modulated by the diurnal curve, with optional burst episodes — which
the latency experiments consume to produce realistic queueing behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ArrivalConfig", "BurstEpisode", "RequestArrivalProcess"]

#: Hour of day at ``t = 0`` of every generated timeline.
_START_HOUR = 12.0


@dataclass(frozen=True)
class BurstEpisode:
    """A transient load spike (flash crowd / retry storm)."""

    start_s: float
    duration_s: float
    multiplier: float

    def active(self, t: float | np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        return (t >= self.start_s) & (t < self.start_s + self.duration_s)


@dataclass
class ArrivalConfig:
    """Arrival-process parameters.

    Attributes:
        base_qps: mean arrival rate before modulation.
        diurnal_amplitude: +-fraction of base rate over the day (0 = flat).
        burst_rate_per_hour: expected burst episodes per hour.
        burst_multiplier: mean load multiplier during a burst.
        seed: RNG seed.

    A burst lasts 20 s on average.
    """

    base_qps: float = 2000.0
    diurnal_amplitude: float = 0.3
    burst_rate_per_hour: float = 2.0
    burst_multiplier: float = 3.0
    seed: int = 0


class RequestArrivalProcess:
    """Generates arrival timestamps and interval counts."""

    def __init__(self, config: ArrivalConfig | None = None) -> None:
        self.config = config or ArrivalConfig()
        self._rng = np.random.default_rng(self.config.seed)
        self.bursts: list[BurstEpisode] = []

    def _rate_at(self, t: np.ndarray) -> np.ndarray:
        cfg = self.config
        hour = (_START_HOUR + t / 3600.0) % 24.0
        diurnal = 1.0 + cfg.diurnal_amplitude * np.sin(
            2 * np.pi * (hour - 15.0) / 24.0
        )
        rate = cfg.base_qps * diurnal
        for burst in self.bursts:
            rate = np.where(burst.active(t), rate * burst.multiplier, rate)
        return np.maximum(rate, 0.0)

    def _draw_bursts(self, horizon_s: float) -> None:
        cfg = self.config
        expected = cfg.burst_rate_per_hour * horizon_s / 3600.0
        count = self._rng.poisson(expected)
        self.bursts = [
            BurstEpisode(
                start_s=float(self._rng.uniform(0, horizon_s)),
                duration_s=float(self._rng.exponential(20.0)),
                multiplier=float(
                    1.0 + self._rng.exponential(cfg.burst_multiplier - 1.0)
                ),
            )
            for _ in range(count)
        ]

    def counts_per_interval(
        self,
        horizon_s: float,
        interval_s: float = 1.0,
        redraw_bursts: bool = True,
    ) -> np.ndarray:
        """Poisson request counts per interval over the horizon, starting
        at noon."""
        if horizon_s <= 0 or interval_s <= 0:
            raise ValueError("horizon and interval must be positive")
        if redraw_bursts:
            self._draw_bursts(horizon_s)
        edges = np.arange(0.0, horizon_s, interval_s)
        rates = self._rate_at(edges)
        return self._rng.poisson(rates * interval_s)

    def peak_to_mean(self) -> float:
        """Burstiness summary: peak over mean interval counts in an hour."""
        counts = self.counts_per_interval(3600.0)
        mean = counts.mean()
        return float(counts.max() / mean) if mean > 0 else 0.0

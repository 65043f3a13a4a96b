"""CPU power and utilisation models plus the diurnal load trace.

Reproduces three observations from the paper:

* Fig. 4 — inference-cluster CPU utilisation stays under ~20% all day, with
  a diurnal shape (evening peak, overnight trough).
* Fig. 5 / Fig. 18a — running the LoRA trainer alongside inference raises
  CPU power by only ~20% over inference-only operation.
* Fig. 18b — LiveUpdate converts idle CPU cycles into useful training work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CPUPowerModel", "DiurnalLoadTrace", "UtilizationSample"]


@dataclass
class UtilizationSample:
    """CPU state at one point in time."""

    time_s: float
    utilization: float
    power_w: float


class CPUPowerModel:
    """Utilisation -> package power, with the usual sub-linear curve.

    ``P(u) = idle + (peak - idle) * u ** alpha`` with ``alpha < 1``:
    early utilisation is disproportionately expensive (uncore/DRAM wake-up),
    which is why adding a 20-30%-utilisation trainer costs only ~20% power.
    """

    idle_w = 180.0
    peak_w = 800.0
    alpha = 0.55

    def power(self, utilization: float) -> float:
        u = float(np.clip(utilization, 0.0, 1.0))
        return self.idle_w + (self.peak_w - self.idle_w) * u ** self.alpha


class DiurnalLoadTrace:
    """24-hour QPS/utilisation trace shaped like production traffic.

    The shape is two smooth humps (midday and evening peaks) over a night
    trough at 35 % of the peak, scaled so peak CPU utilisation is 20 %
    (ByteDance's cluster, Fig. 4), with 1 % multiplicative noise from a
    generator seeded with 0.
    """

    def __init__(self) -> None:
        self.peak_utilization = 0.20
        self.trough_fraction = 0.35
        self.noise = 0.01
        self._rng = np.random.default_rng(0)

    def _shape(self, hour: np.ndarray) -> np.ndarray:
        """Normalised load in [trough_fraction, 1] for hour-of-day."""
        midday = np.exp(-0.5 * ((hour - 12.5) / 3.0) ** 2)
        evening = 1.15 * np.exp(-0.5 * ((hour - 20.5) / 2.2) ** 2)
        raw = np.maximum(midday, evening) / 1.15  # normalise peak to 1.0
        lo = self.trough_fraction
        return lo + (1.0 - lo) * raw

    def utilization_at(self, hour: float | np.ndarray) -> np.ndarray:
        hour = np.asarray(hour, dtype=np.float64) % 24.0
        util = self.peak_utilization * self._shape(hour)
        if self.noise:
            util = util * (
                1.0 + self._rng.normal(0.0, self.noise, size=util.shape)
            )
        return np.clip(util, 0.0, 1.0)

    def sample_day(
        self,
        interval_s: float = 300.0,
        power_model: CPUPowerModel | None = None,
        extra_utilization: float = 0.0,
    ) -> list[UtilizationSample]:
        """Sample a full day at ``interval_s`` cadence.

        ``extra_utilization`` adds a constant load (the co-located trainer)
        on top of the serving curve — the before/after of Fig. 18b.
        """
        power_model = power_model or CPUPowerModel()
        times = np.arange(0.0, 24 * 3600.0, interval_s)
        out = []
        for t in times:
            u = float(self.utilization_at(t / 3600.0))
            u_total = min(u + extra_utilization, 1.0)
            out.append(
                UtilizationSample(
                    time_s=float(t),
                    utilization=u_total,
                    power_w=power_model.power(u_total),
                )
            )
        return out

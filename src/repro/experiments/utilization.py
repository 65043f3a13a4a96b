"""CPU utilisation and power experiments (Fig. 4, Fig. 5, Fig. 18).

These run entirely on the hardware substrate's power/load models: a diurnal
serving-load trace with peak CPU utilisation ~20% (Fig. 4), the modest power
delta of co-locating the trainer (Fig. 5 / 18a), and the utilisation uplift
of LiveUpdate converting idle cycles into training work (Fig. 18b).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..hardware.power import CPUPowerModel, DiurnalLoadTrace, UtilizationSample
from ..serving.engine import WindowResult

__all__ = [
    "DayProfile",
    "simulate_day_profile",
    "PowerComparison",
    "power_comparison",
    "WindowUtilization",
    "utilization_from_windows",
]


@dataclass
class DayProfile:
    """One 24-hour utilisation/power trace."""

    label: str
    samples: list[UtilizationSample]

    @property
    def peak_utilization(self) -> float:
        return max(s.utilization for s in self.samples)

    @property
    def mean_utilization(self) -> float:
        return float(np.mean([s.utilization for s in self.samples]))

    @property
    def mean_power_w(self) -> float:
        return float(np.mean([s.power_w for s in self.samples]))

    @property
    def energy_kwh(self) -> float:
        if len(self.samples) < 2:
            return 0.0
        interval_h = (self.samples[1].time_s - self.samples[0].time_s) / 3600.0
        return sum(s.power_w for s in self.samples) * interval_h / 1000.0


def simulate_day_profile(
    extra_utilization: float = 0.0,
    label: str = "inference-only",
    interval_s: float = 300.0,
) -> DayProfile:
    """Fig. 4 (extra=0) and Fig. 18b (extra=trainer load) day traces."""
    samples = DiurnalLoadTrace().sample_day(
        interval_s=interval_s,
        power_model=CPUPowerModel(),
        extra_utilization=extra_utilization,
    )
    return DayProfile(label=label, samples=samples)


@dataclass
class PowerComparison:
    """Fig. 5 / Fig. 18a: inference-only vs co-located power."""

    inference_only: DayProfile
    colocated: DayProfile

    @property
    def mean_power_increase(self) -> float:
        """Fractional mean power increase from co-located training."""
        base = self.inference_only.mean_power_w
        return (self.colocated.mean_power_w - base) / base


@dataclass
class WindowUtilization:
    """Memory-path utilisation summarised over simulated serving windows.

    The serving-window engine emits one :class:`~repro.serving.engine.
    WindowResult` per window; this aggregates the resource-side view the
    utilisation experiments care about — how hard the contended DRAM path
    runs and how the tail behaves while it does.
    """

    windows: int
    mean_memory_utilization: float
    peak_memory_utilization: float
    mean_traffic_gbps: float
    worst_p99_ms: float
    total_accesses: int

    @property
    def headroom(self) -> float:
        """Remaining fraction of the memory path at the mean operating point."""
        return 1.0 - self.mean_memory_utilization


def utilization_from_windows(results: list[WindowResult]) -> WindowUtilization:
    """Fold serving-window results into one utilisation summary.

    Used by the Fig. 18 bench to report the DRAM-side cost of harvesting
    idle cycles, and by :func:`repro.experiments.memory.bandwidth_pressure`
    for the Fig. 10 headroom argument.
    """
    if not results:
        raise ValueError("need at least one window result")
    utils = np.array([r.memory_utilization for r in results])
    return WindowUtilization(
        windows=len(results),
        mean_memory_utilization=float(utils.mean()),
        peak_memory_utilization=float(utils.max()),
        mean_traffic_gbps=float(
            np.mean([r.memory_traffic_gbps for r in results])
        ),
        worst_p99_ms=float(max(r.p99_ms for r in results)),
        total_accesses=sum(
            r.inference_accesses + r.training_accesses for r in results
        ),
    )


def power_comparison() -> PowerComparison:
    """Build the before/after power comparison of Fig. 5.

    The paper measures ~20% higher CPU power when the LoRA trainer runs
    alongside inference; the trainer adds 10 % CPU load (idle cycles put
    to work).
    """
    return PowerComparison(
        inference_only=simulate_day_profile(0.0, "inference-only"),
        colocated=simulate_day_profile(0.10, "inference+training"),
    )

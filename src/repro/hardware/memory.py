"""DRAM bandwidth and contention model.

Fig. 10 of the paper shows inference alone leaves DDR bandwidth headroom,
yet Fig. 16 shows naive co-location more than doubles P99 latency: the
problem is not average bandwidth exhaustion but *queueing* — bursty,
irregular trainer traffic inflates memory access latency long before
saturation.  We model that with an M/M/1-style latency multiplier
``1 / (1 - rho)`` on utilisation ``rho``, the standard closed-form for how
memory access latency balloons as a channel approaches saturation.
"""

from __future__ import annotations

from dataclasses import dataclass


__all__ = ["MemoryTraffic", "MemoryBandwidthModel"]


@dataclass
class MemoryTraffic:
    """Demand of one workload on a memory domain, in GB/s."""

    read_gbps: float = 0.0
    write_gbps: float = 0.0

    @property
    def total_gbps(self) -> float:
        return self.read_gbps + self.write_gbps

    def __add__(self, other: "MemoryTraffic") -> "MemoryTraffic":
        return MemoryTraffic(
            self.read_gbps + other.read_gbps,
            self.write_gbps + other.write_gbps,
        )


class MemoryBandwidthModel:
    """Latency/throughput model of one DRAM domain (a socket's channels).

    Args:
        peak_gbps: aggregate channel bandwidth of the domain.
    """

    #: Unloaded DRAM access latency.
    base_latency_ns = 90.0
    #: Writes cost this factor more than reads (turnaround overhead on the
    #: bus); irregular trainer writes are the expensive part of co-location.
    write_penalty = 1.5
    #: Utilisation ceiling: queueing theory blows up at rho = 1, real DDR
    #: controllers saturate around 85-90% of peak.
    max_utilization = 0.9

    def __init__(self, peak_gbps: float = 460.8) -> None:
        if peak_gbps <= 0:
            raise ValueError("peak bandwidth must be positive")
        self.peak_gbps = peak_gbps

    def utilization(self, traffic: MemoryTraffic) -> float:
        """Effective utilisation in [0, max_utilization]."""
        effective = traffic.read_gbps + self.write_penalty * traffic.write_gbps
        return min(effective / self.peak_gbps, self.max_utilization)

    def latency_multiplier(self, traffic: MemoryTraffic) -> float:
        """How much slower one access is versus an idle memory system."""
        rho = self.utilization(traffic)
        return 1.0 / (1.0 - rho)

    def access_latency_ns(self, traffic: MemoryTraffic) -> float:
        """Loaded access latency under the given aggregate demand."""
        return self.base_latency_ns * self.latency_multiplier(traffic)

    # ------------------------------------------------------- demand estimates
    @staticmethod
    def inference_traffic(
        qps: float,
        lookups_per_query: int,
        row_bytes: int,
        l3_hit_ratio: float,
    ) -> MemoryTraffic:
        """DRAM read demand of the serving path.

        Only L3 misses reach DRAM; a higher hit ratio directly shrinks
        memory traffic — the mechanism behind the reuse optimisation.
        """
        misses_per_s = qps * lookups_per_query * (1.0 - l3_hit_ratio)
        return MemoryTraffic(read_gbps=misses_per_s * row_bytes / 1e9)

    @staticmethod
    def training_traffic(
        samples_per_s: float,
        lookups_per_sample: int,
        row_bytes: int,
        l3_hit_ratio: float,
        write_fraction: float = 0.5,
    ) -> MemoryTraffic:
        """DRAM demand of the co-located trainer (reads + gradient writes)."""
        touches_per_s = samples_per_s * lookups_per_sample * (1.0 - l3_hit_ratio)
        bytes_per_s = touches_per_s * row_bytes / 1e9
        return MemoryTraffic(
            read_gbps=bytes_per_s * (1.0 - write_fraction),
            write_gbps=bytes_per_s * write_fraction,
        )

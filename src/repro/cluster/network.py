"""Inter-cluster network model.

Update-cost results in the paper (Fig. 14, and the headline "26 minutes to
sync 20 TB over 100 GbE") reduce to transfer time = volume / effective
bandwidth plus propagation latency.  This module provides exactly that
arithmetic, with named link presets used across benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["NetworkLink", "GBE_100", "INFINIBAND_EDR"]

GB = 1024 ** 3
TB = 1024 ** 4


@dataclass(frozen=True)
class NetworkLink:
    """A point-to-point (or bisection) network path.

    Attributes:
        name: label for reports.
        bandwidth_gbps: raw line rate in **gigabits** per second.
        latency_ms: one-way propagation/setup latency.
        efficiency: achievable fraction of line rate (protocol overheads,
            incast, imperfect pipelining); 0.85-0.95 typical.
    """

    name: str
    bandwidth_gbps: float
    latency_ms: float = 0.5
    efficiency: float = 0.9

    @property
    def bytes_per_second(self) -> float:
        return self.bandwidth_gbps * 1e9 / 8.0 * self.efficiency

    def transfer_seconds(self, volume_bytes: float) -> float:
        """Time to move ``volume_bytes``."""
        if volume_bytes < 0:
            raise ValueError("volume must be non-negative")
        return self.latency_ms / 1e3 + volume_bytes / self.bytes_per_second


#: Commodity inter-cluster link from the paper's examples.
GBE_100 = NetworkLink(name="100GbE", bandwidth_gbps=100.0)

#: Intra-cluster fabric of the evaluation testbed.
INFINIBAND_EDR = NetworkLink(
    name="InfiniBand-EDR", bandwidth_gbps=100.0, latency_ms=0.05, efficiency=0.95
)


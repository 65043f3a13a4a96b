"""End-to-end inference latency model with tail statistics.

A served request costs:

* embedding lookups — hits stay in L3 (cheap), misses pay the *loaded* DRAM
  latency from :class:`~repro.hardware.memory.MemoryBandwidthModel`,
  optionally inflated by a remote-socket fraction when allocations are not
  NUMA-aware;
* dense forward on the GPU — modelled as a lognormal service time;
* queueing jitter — a lognormal multiplicative factor capturing scheduling
  and burst effects so percentile statistics are meaningful.

A "request" here is a *served batch* (production servers batch hundreds of
queries per GPU pass), so ``lookups_per_query`` counts the aggregate
embedding fetches of the batch.  The model emits per-request latency
samples; P99 over a window is the SLA metric the paper enforces (<20 ms
overall, <10 ms GPU time in Section V).
"""

from __future__ import annotations

import numpy as np

from .memory import MemoryBandwidthModel, MemoryTraffic

__all__ = ["InferenceLatencyModel", "percentile"]


def percentile(samples: np.ndarray, q: float) -> float:
    """Percentile helper (q in [0, 100]) tolerating empty input."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size == 0:
        return float("nan")
    return float(np.percentile(samples, q))


class InferenceLatencyModel:
    """Generates per-request latency samples for a serving configuration.

    Args:
        memory: the DRAM domain serving embedding misses.
        lookups_per_query: aggregate embedding rows fetched per served
            batch (hundreds of queries x tens of tables x pooled ids).
        seed: RNG seed for reproducible sampling.
    """

    #: Cost of an L3 hit.
    l3_hit_latency_ns = 12.0
    #: Outstanding misses overlapped by the hardware (prefetchers / MLP);
    #: misses cost ``latency / parallelism``.
    memory_parallelism = 4.0
    #: Median GPU dense-stack time per batch, and its lognormal shape.
    dense_ms = 2.2
    dense_sigma = 0.18
    #: Lognormal shape of the end-to-end queueing jitter.
    jitter_sigma = 0.28

    def __init__(
        self,
        memory: MemoryBandwidthModel | None = None,
        lookups_per_query: int = 100_000,
        seed: int = 0,
    ) -> None:
        self.memory = memory or MemoryBandwidthModel()
        self.lookups_per_query = lookups_per_query
        self._rng = np.random.default_rng(seed)

    def mean_lookup_ms(
        self,
        l3_hit_ratio: float,
        traffic: MemoryTraffic,
        remote_fraction: float = 0.0,
    ) -> float:
        """Expected embedding-fetch time per served batch.

        ``remote_fraction`` is the share of DRAM accesses landing on the
        remote socket (zero under NUMA-aware allocation); each costs twice
        a local miss.
        """
        if not 0.0 <= l3_hit_ratio <= 1.0:
            raise ValueError("hit ratio must be in [0, 1]")
        if not 0.0 <= remote_fraction <= 1.0:
            raise ValueError("remote fraction must be in [0, 1]")
        miss_ns = self.memory.access_latency_ns(traffic)
        miss_ns *= 1.0 + remote_fraction
        per_lookup_ns = (
            l3_hit_ratio * self.l3_hit_latency_ns
            + (1.0 - l3_hit_ratio) * miss_ns
        )
        return (
            self.lookups_per_query * per_lookup_ns / self.memory_parallelism / 1e6
        )

    def sample_latencies(
        self,
        num_requests: int,
        l3_hit_ratio: float,
        traffic: MemoryTraffic,
        remote_fraction: float = 0.0,
    ) -> np.ndarray:
        """Draw ``num_requests`` end-to-end batch latencies in milliseconds."""
        lookup_ms = self.mean_lookup_ms(l3_hit_ratio, traffic, remote_fraction)
        dense = self.dense_ms * np.exp(
            self._rng.normal(0.0, self.dense_sigma, size=num_requests)
        )
        jitter = np.exp(
            self._rng.normal(0.0, self.jitter_sigma, size=num_requests)
        )
        return (lookup_ms + dense) * jitter

"""Hardware substrate: CPU topology, L3 cache simulation, DRAM contention,
latency/power models, adaptive NUMA partitioning, and embedding reuse."""

from .cache import CacheStats
from .latency import InferenceLatencyModel, percentile
from .memory import MemoryBandwidthModel, MemoryTraffic
from .numa import AdaptiveNumaPartitioner, PartitionState, RebalanceEvent
from .power import CPUPowerModel, DiurnalLoadTrace, UtilizationSample
from .tiered_store import TieredEmbeddingStore, TieredStoreConfig, TierStats
from .topology import CCD, EPYC_9684X_DUAL, NodeTopology, Socket

__all__ = [
    "CCD",
    "Socket",
    "NodeTopology",
    "EPYC_9684X_DUAL",
    "CacheStats",
    "MemoryTraffic",
    "MemoryBandwidthModel",
    "InferenceLatencyModel",
    "percentile",
    "CPUPowerModel",
    "DiurnalLoadTrace",
    "UtilizationSample",
    "AdaptiveNumaPartitioner",
    "PartitionState",
    "RebalanceEvent",
    "TieredEmbeddingStore",
    "TieredStoreConfig",
    "TierStats",
]

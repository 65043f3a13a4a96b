"""Sharded parameter-plane subsystem (the Fig. 2 KV tier, array-native).

Four pieces:

* :mod:`placement` — splitmix64 consistent-hash key -> shard mapping,
  byte-identical across processes (never the salted builtin ``hash()``);
* :mod:`shard` — per-shard dense row blocks over
  :class:`repro.core.kernels.IdSlotTable` with append-only delta logs;
* :mod:`store` — :class:`ShardedParameterStore`: vectorized partitioned
  publishes, O(changed) delta pulls, live shard add/remove, and — with
  ``replication > 1`` — quorum publishes (:class:`QuorumError` on a
  refused window), replica-failover reads, missed-version ledgers, and
  :class:`RepairPlan`-driven self-healing;
* :mod:`client` — :class:`ShardClient`: staged version-batched publishes,
  batched multi-table pulls, alpha-beta transfer-cost charging, and
  sync-point registration that pins watermark log compaction.  Every pull
  runs one body; a :class:`~repro.cluster.resilience.ResiliencePolicy`
  only changes how coverage is decided (a modelled RPC wave with breakers,
  hedges and retries instead of one look at the store state).  A pull the
  live replicas cannot answer exactly keeps its sync point: with a policy
  it comes back ``degraded`` and empty, without one it raises
  :class:`~repro.cluster.resilience.errors.DegradedReadError`.

Callers construct :class:`ShardedParameterStore` directly; fault
injection against it lives in :mod:`repro.cluster.faults`.
"""

from .client import ClientTransferReport, ShardClient
from .placement import ShardPlacement, stable_table_hash
from .shard import ParameterShard, ShardStats
from .store import (
    QuorumError,
    RebalanceReport,
    RepairPlan,
    RepairReport,
    RepairTask,
    ShardedParameterStore,
)

__all__ = [
    "ClientTransferReport",
    "ShardClient",
    "ShardPlacement",
    "stable_table_hash",
    "ParameterShard",
    "ShardStats",
    "QuorumError",
    "RebalanceReport",
    "RepairPlan",
    "RepairReport",
    "RepairTask",
    "ShardedParameterStore",
]

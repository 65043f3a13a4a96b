"""Deployment substrate: networks, sharded parameter store, collectives, cluster
actors, and the discrete-event update-timeline simulator."""

from .collectives import (
    CollectiveCostModel,
    fit_log_trend,
)
from .consistency import (
    ConsistencyReport,
    check_prediction_consistency,
    parameter_divergence,
)
from .faults import FaultEvent, FaultPlane, FaultSchedule
from .network import GBE_100, INFINIBAND_EDR, NetworkLink
from .nodes import InferenceNode, PullReport, PushReport, TrainingCluster
from .resilience import (
    CircuitBreaker,
    DegradedReadError,
    HealthTracker,
    ResiliencePolicy,
)
from .shardstore import (
    ClientTransferReport,
    QuorumError,
    RebalanceReport,
    RepairPlan,
    RepairReport,
    RepairTask,
    ShardClient,
    ShardPlacement,
    ShardStats,
    ShardedParameterStore,
)
from .timeline import UpdateEvent, UpdateTimeline, simulate_periodic_updates

__all__ = [
    "NetworkLink",
    "GBE_100",
    "INFINIBAND_EDR",
    "ConsistencyReport",
    "check_prediction_consistency",
    "parameter_divergence",
    "FaultEvent",
    "FaultPlane",
    "FaultSchedule",
    "ShardStats",
    "CircuitBreaker",
    "DegradedReadError",
    "HealthTracker",
    "ResiliencePolicy",
    "ShardedParameterStore",
    "ShardClient",
    "ShardPlacement",
    "ClientTransferReport",
    "QuorumError",
    "RebalanceReport",
    "RepairPlan",
    "RepairReport",
    "RepairTask",
    "CollectiveCostModel",
    "fit_log_trend",
    "TrainingCluster",
    "InferenceNode",
    "PushReport",
    "PullReport",
    "UpdateEvent",
    "UpdateTimeline",
    "simulate_periodic_updates",
]

"""LiveUpdate: near-zero-overhead freshness for recommendation systems via
inference-side model updates (HPCA 2026 reproduction).

Subpackages:

* :mod:`repro.dlrm` — the DLRM model substrate (embeddings, MLPs, metrics).
* :mod:`repro.data` — Zipf workloads, drifting CTR streams, dataset specs.
* :mod:`repro.hardware` — CPU topology, L3/DRAM simulators, NUMA scheduling.
* :mod:`repro.cluster` — networks, parameter server, collectives, timelines.
* :mod:`repro.strategies` — NoUpdate / DeltaUpdate / QuickUpdate baselines.
* :mod:`repro.core` — the LiveUpdate contribution: LoRA adapters, dynamic
  rank adaptation, usage-based pruning, the inference-side trainer, sparse
  data-parallel sync, and the tiered update strategy.
* :mod:`repro.serving` — the co-located node simulator and QoS monitoring.
* :mod:`repro.obs` — the simulated clock the resilient client runs on.
* :mod:`repro.experiments` — drivers for every paper figure and table.
"""

from .core.liveupdate import LiveUpdate, LiveUpdateConfig
from .core.trainer import LoRATrainer, TrainerConfig
from .dlrm.model import DLRM, DLRMConfig

__version__ = "0.1.0"

__all__ = [
    "DLRM",
    "DLRMConfig",
    "LiveUpdate",
    "LiveUpdateConfig",
    "LoRATrainer",
    "TrainerConfig",
    "__version__",
]

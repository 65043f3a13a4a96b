"""Memory-optimization effectiveness (Fig. 17) and adapter footprints.

Compares the LoRA memory footprint under three configurations:

* **Fixed Rank** — rank 16/64-style adapters with a full-length table
  (every vocabulary row gets a slot): the baseline.
* **+ Dynamic Rank** — rank chosen by PCA (Eq. 2), table still full-length:
  the paper measures 80-89% savings from this step alone.
* **+ Pruning** — rank adaptation plus usage-based pruning (Algorithm 1):
  total savings reach 97-99%.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..data.stream import InferenceLogBuffer
from ..core.trainer import LoRATrainer, TrainerConfig
from ..serving.engine import WindowResult
from .accuracy import AccuracyConfig, build_pretrained_world

__all__ = [
    "MemoryFootprint",
    "measure_memory_footprints",
    "BandwidthPressure",
    "bandwidth_pressure",
]


@dataclass
class MemoryFootprint:
    """Adapter bytes under one configuration."""

    label: str
    adapter_bytes: int
    base_bytes: int

    @property
    def fraction_of_base(self) -> float:
        return self.adapter_bytes / self.base_bytes

    def savings_vs(self, other: "MemoryFootprint") -> float:
        """Fractional reduction relative to another configuration."""
        return 1.0 - self.adapter_bytes / other.adapter_bytes


@dataclass
class BandwidthPressure:
    """Fig. 10's DRAM-pressure view of one serving-window configuration."""

    label: str
    traffic_gbps: float
    utilization: float
    p99_ms: float

    @classmethod
    def from_window(cls, label: str, result: WindowResult) -> "BandwidthPressure":
        return cls(
            label=label,
            traffic_gbps=result.memory_traffic_gbps,
            utilization=result.memory_utilization,
            p99_ms=result.p99_ms,
        )


def bandwidth_pressure(
    results: dict[str, WindowResult]
) -> list[BandwidthPressure]:
    """Summarise serving windows for the Fig. 10 headroom argument.

    The point of Fig. 10 is that inference alone leaves DRAM bandwidth
    headroom and even naive co-location does not saturate the channels —
    the latency damage is queueing and cache contention.  The returned
    rows carry exactly the three observables that argument needs, in the
    order the windows were given.
    """
    return [
        BandwidthPressure.from_window(label, result)
        for label, result in results.items()
    ]


def _train_trainer(
    config: AccuracyConfig, trainer_config: TrainerConfig, slots: int = 40
) -> LoRATrainer:
    stream, model = build_pretrained_world(config)
    buffer = InferenceLogBuffer(retention_s=600.0)
    trainer = LoRATrainer(model, buffer, trainer_config)
    for _ in range(slots):
        buffer.append(stream.next_batch(512, local=True))
        for _ in range(4):
            trainer.train_step()
        stream.advance(30.0)
    return trainer


def measure_memory_footprints(
    config: AccuracyConfig | None = None,
    slots: int = 40,
) -> list[MemoryFootprint]:
    """Run the three Fig. 17 configurations (fixed rank 16, dynamic rank,
    dynamic rank + pruning) and report adapter footprints."""
    config = config or AccuracyConfig()
    base_bytes = None
    results: list[MemoryFootprint] = []

    fixed = _train_trainer(
        config,
        TrainerConfig(
            rank=16,
            dynamic_rank=False,
            dynamic_prune=False,
            capacity_fraction=1.0,  # a slot for every row: the naive layout
        ),
        slots=slots,
    )
    base_bytes = fixed.model.embedding_bytes
    results.append(
        MemoryFootprint("Fixed Rank", fixed.memory_bytes(), base_bytes)
    )

    dyn_rank = _train_trainer(
        config,
        TrainerConfig(
            rank=4,
            dynamic_rank=True,
            dynamic_prune=False,
            capacity_fraction=1.0,
        ),
        slots=slots,
    )
    results.append(
        MemoryFootprint("+ Dynamic Rank", dyn_rank.memory_bytes(), base_bytes)
    )

    full = _train_trainer(
        config,
        TrainerConfig(rank=4, dynamic_rank=True, dynamic_prune=True),
        slots=slots,
    )
    results.append(
        MemoryFootprint("+ Pruning", full.memory_bytes(), base_bytes)
    )
    return results

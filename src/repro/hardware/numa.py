"""Adaptive NUMA/CCD resource partitioning (Algorithm 2 of the paper).

The scheduler spatially isolates the latency-critical inference threads and
the LoRA trainer onto disjoint CCD sets, then continuously rebalances: if
observed P99 inference latency exceeds ``t_high`` one CCD moves from training
to inference; if it drops below ``t_low`` (and training is under its cap)
one CCD moves back.  All moves respect a minimum inference allocation and a
training cap so the trainer can never saturate memory bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .topology import NodeTopology

__all__ = ["PartitionState", "RebalanceEvent", "AdaptiveNumaPartitioner"]


@dataclass(frozen=True)
class PartitionState:
    """Current CCD assignment."""

    inference_ccds: tuple[int, ...]
    training_ccds: tuple[int, ...]

    @property
    def num_inference(self) -> int:
        return len(self.inference_ccds)

    @property
    def num_training(self) -> int:
        return len(self.training_ccds)


@dataclass(frozen=True)
class RebalanceEvent:
    """One scheduler decision, recorded for analysis/tests."""

    cycle: int
    p99_ms: float
    action: str  # "to_inference" | "to_training" | "hold"
    moved_ccd: int | None
    state: PartitionState


class AdaptiveNumaPartitioner:
    """Implements Algorithm 2.

    Args:
        topology: node CCD inventory.
        t_high_ms: relocate a CCD to inference above this P99 (paper: 10 ms).
        t_low_ms: reclaim a CCD for training below this P99 (paper: 6 ms).
        min_inference_ccds: floor on the inference allocation.
        max_training_ccds: cap on the training allocation (bandwidth guard).
        initial_training_ccds: CCDs granted to training at start.
    """

    def __init__(
        self,
        topology: NodeTopology,
        t_high_ms: float = 10.0,
        t_low_ms: float = 6.0,
        min_inference_ccds: int = 4,
        max_training_ccds: int = 4,
        initial_training_ccds: int = 2,
    ) -> None:
        if t_low_ms >= t_high_ms:
            raise ValueError("t_low must be below t_high")
        total = topology.num_ccds
        if min_inference_ccds + 1 > total:
            raise ValueError("topology too small for the minimum inference set")
        if initial_training_ccds > max_training_ccds:
            raise ValueError("initial training allocation exceeds the cap")
        self.topology = topology
        self.t_high_ms = t_high_ms
        self.t_low_ms = t_low_ms
        self.min_inference_ccds = min_inference_ccds
        self.max_training_ccds = max_training_ccds
        all_ids = [c.ccd_id for c in topology.ccds]
        n_train = min(initial_training_ccds, max_training_ccds)
        self._training = list(all_ids[-n_train:]) if n_train else []
        self._inference = [i for i in all_ids if i not in self._training]
        self.history: list[RebalanceEvent] = []
        self._cycle = 0

    # ------------------------------------------------------------------ state
    @property
    def state(self) -> PartitionState:
        return PartitionState(tuple(self._inference), tuple(self._training))

    # ------------------------------------------------------------- adaptation
    def observe(self, p99_ms: float) -> RebalanceEvent:
        """One adaptation cycle: lines 6-12 of Algorithm 2."""
        self._cycle += 1
        action, moved = "hold", None
        can_grow_inference = bool(self._training)
        if p99_ms >= self.t_high_ms and can_grow_inference:
            moved = self._training.pop()
            self._inference.append(moved)
            action = "to_inference"
        elif (
            p99_ms <= self.t_low_ms
            and len(self._training) < self.max_training_ccds
            and len(self._inference) > self.min_inference_ccds
        ):
            moved = self._inference.pop()
            self._training.append(moved)
            action = "to_training"
        event = RebalanceEvent(
            cycle=self._cycle,
            p99_ms=p99_ms,
            action=action,
            moved_ccd=moved,
            state=self.state,
        )
        self.history.append(event)
        return event

    def run(
        self,
        measure_p99: Callable[[PartitionState], float],
        cycles: int,
    ) -> list[RebalanceEvent]:
        """Closed-loop control: measure under the current state, then adapt.

        ``measure_p99`` receives the partition in force during the window
        (so the latency model can account for the trainer's allocation).
        """
        events = []
        for _ in range(cycles):
            p99 = measure_p99(self.state)
            events.append(self.observe(p99))
        return events

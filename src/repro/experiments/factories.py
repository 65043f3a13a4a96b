"""Canonical strategy factories for the comparison experiments.

Each factory builds one of the evaluated configurations from Table III /
Fig. 15: the three baselines, fixed-rank LiveUpdate ablations, and the full
dynamic-rank LiveUpdate.
"""

from __future__ import annotations

from ..cluster.nodes import InferenceNode, TrainingCluster
from ..core.liveupdate import LiveUpdate, LiveUpdateConfig
from ..core.trainer import TrainerConfig
from ..strategies import DeltaUpdate, NoUpdate, QuickUpdate
from ..strategies.base import UpdateStrategy

__all__ = [
    "no_update",
    "delta_update",
    "quick_update",
    "live_update",
    "standard_lineup",
]


def no_update(trainer: TrainingCluster, node: InferenceNode) -> UpdateStrategy:
    """Stale baseline: the Day-1 checkpoint serves unchanged."""
    return NoUpdate()


def delta_update(
    trainer: TrainingCluster, node: InferenceNode
) -> UpdateStrategy:
    """Full periodic delta shipping (the paper's DeltaUpdate baseline)."""
    return DeltaUpdate(trainer, node)


def quick_update(alpha: float = 0.05):
    """Factory-of-factory so the top-percent is configurable."""

    def build(trainer: TrainingCluster, node: InferenceNode) -> UpdateStrategy:
        return QuickUpdate(trainer, node, alpha=alpha)

    return build


def live_update(rank: int | None = None):
    """LiveUpdate factory: adapter lr 0.25, 6 trainer steps between
    windows, PCA variance threshold 0.8 when the rank is dynamic.

    Args:
        rank: fixed LoRA rank (``None`` = dynamic rank adaptation).
    """

    def build(trainer: TrainingCluster, node: InferenceNode) -> UpdateStrategy:
        trainer_config = TrainerConfig(
            rank=rank if rank is not None else 4,
            dynamic_rank=rank is None,
            alpha=0.8,
            lr=0.25,
        )
        return LiveUpdate(
            node,
            trainer_cluster=trainer,
            trainer_config=trainer_config,
            config=LiveUpdateConfig(steps_per_slot=6),
        )

    return build


def standard_lineup() -> dict[str, object]:
    """The Table III lineup keyed by the paper's row labels."""
    return {
        "DeltaUpdate": delta_update,
        "NoUpdate": no_update,
        "QuickUpdate-5%": quick_update(0.05),
        "QuickUpdate-10%": quick_update(0.10),
        "LiveUpdate-8": live_update(rank=8),
        "LiveUpdate-16/64": live_update(rank=16),
        "LiveUpdate": live_update(rank=None),
    }

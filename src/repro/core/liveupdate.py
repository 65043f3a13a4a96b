"""The LiveUpdate strategy: tiered inference-side updates (Section IV-B).

* **Short-term** (every update window): train LoRA adapters locally from the
  inference-log ring buffer — no inter-cluster traffic at all.
* **Mid-term** (hourly): full-parameter synchronization from the training
  cluster to stop model-drift accumulation; local adapters reset because the
  fresh base already embodies recent data.
* **Long-term** (days): full retraining — out of scope here, as in the paper.

Update cost is the *local training time*, measured directly from the
trainer, optionally augmented by the production-scale cost model used in the
Fig. 14 benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from ..cluster.nodes import InferenceNode, TrainingCluster
from ..data.stream import InferenceLogBuffer
from ..data.synthetic import Batch
from ..strategies.base import UpdateCost, UpdateStrategy
from .trainer import BATCH_SIZE, LoRATrainer, TrainerConfig

__all__ = ["LiveUpdateConfig", "LiveUpdate"]


@dataclass
class LiveUpdateConfig:
    """Strategy-level knobs (trainer hyper-params live in TrainerConfig).

    Attributes:
        steps_per_slot: LoRA mini-batches per fine-grained time slot (the
            trainer thread's cadence; it runs continuously, not only at
            window boundaries).
        retention_s: ring-buffer retention (paper: 10 minutes).
    """

    steps_per_slot: int = 2
    retention_s: float = 600.0
    # Extra LoRA mini-batches at each window boundary: a constant, not a
    # setting (the repo benchmark reads it to count the steps it expects).
    steps_per_window: ClassVar[int] = 4


class LiveUpdate(UpdateStrategy):
    """Co-located LoRA training on the serving replica.

    Args:
        node: the inference node whose model we adapt in place.
        trainer_cluster: source of the hourly full sync (may be ``None`` for
            purely-local operation; hourly sync then becomes a no-op).
        trainer_config: LoRA trainer hyper-parameters.
        config: strategy-level settings.
    """

    name = "LiveUpdate"

    def __init__(
        self,
        node: InferenceNode,
        trainer_cluster: TrainingCluster | None = None,
        trainer_config: TrainerConfig | None = None,
        config: LiveUpdateConfig | None = None,
    ) -> None:
        super().__init__()
        self.node = node
        self.trainer_cluster = trainer_cluster
        self.config = config or LiveUpdateConfig()
        self.buffer = InferenceLogBuffer(retention_s=self.config.retention_s)
        self.trainer = LoRATrainer(
            node.model, self.buffer, trainer_config or TrainerConfig()
        )
        # Compute seconds of on_slot steps since the last update window.
        self._slot_cost = 0.0
        tc = self.trainer.config
        if not tc.dynamic_rank:
            self.name = f"LiveUpdate-{tc.rank}"

    # -------------------------------------------------------------- protocol
    def on_serving_batch(self, batch: Batch) -> None:
        """Log served traffic into the training ring buffer (Fig. 7 step 4)."""
        self.buffer.append(batch)

    def overlay(self):
        return self.trainer.overlay()

    def _train_burst(self, steps: int) -> tuple[int, float]:
        before = self.trainer.report.train_seconds
        done = 0
        for _ in range(steps):
            if self.trainer.train_step() is None:
                break
            done += 1
        return done, self.trainer.report.train_seconds - before

    def on_slot(self, now: float) -> None:
        """Continuous background training between windows."""
        done, elapsed = self._train_burst(self.config.steps_per_slot)
        if done:
            self._slot_cost += elapsed

    def on_update_window(self, now: float) -> UpdateCost:
        """Window-boundary training burst; cost = measured compute seconds.

        Includes the compute accumulated by :meth:`on_slot` since the last
        window so Fig. 14-style accounting sees the full training cost.
        """
        steps_done, elapsed = self._train_burst(self.config.steps_per_window)
        slot_cost, self._slot_cost = self._slot_cost, 0.0
        cost = UpdateCost(
            kind="lora-local",
            seconds=elapsed + slot_cost,
            bytes_moved=0.0,  # the headline: zero inter-cluster traffic
            rows=steps_done * BATCH_SIZE,
        )
        return self.record(cost)

    def on_full_sync(self, now: float) -> UpdateCost:
        """Hourly full-parameter re-anchor from the training cluster."""
        if self.trainer_cluster is None:
            return self.record(UpdateCost.zero("full-sync-skipped"))
        # Fold the adapters into the base before adopting the training
        # cluster's model, so serving stays continuous while it lands.
        self.trainer.merge_and_reset()
        self.node.adopt_model(self.trainer_cluster.model)
        for table in self.trainer_cluster.model.embeddings:
            table.reset_touched()
        nbytes = self.trainer_cluster.model.embedding_bytes
        cost = UpdateCost(
            kind="full-sync",
            seconds=self.node.link.transfer_seconds(nbytes),
            bytes_moved=nbytes,
            rows=sum(t.num_rows for t in self.node.model.embeddings),
        )
        return self.record(cost)

    # ------------------------------------------------------------ accounting
    def adapter_memory_bytes(self) -> int:
        return self.trainer.memory_bytes()

    def adapter_memory_fraction(self) -> float:
        """Adapter footprint over base EMT footprint (paper target: <2%)."""
        return self.trainer.memory_bytes() / self.node.model.embedding_bytes

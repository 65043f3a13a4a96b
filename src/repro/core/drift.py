"""Model-drift monitoring and adaptive full-sync triggering.

The paper's tiered strategy uses a *fixed* hourly full sync to bound the
drift that accumulates while LoRA adapters chase local traffic (Fig. 8).
This module implements the natural extension the design implies: measure
drift directly and trigger the full sync only when it matters — saving
full-sync bandwidth when drift is slow and re-anchoring early when a trend
shifts the distribution quickly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..dlrm.model import DLRM

__all__ = ["DriftSample", "DriftMonitor", "AdaptiveSyncPolicy"]


@dataclass
class DriftSample:
    """One drift observation."""

    time_s: float
    adapter_norm: float
    base_divergence: float

    @property
    def total(self) -> float:
        return self.adapter_norm + self.base_divergence


class DriftMonitor:
    """Tracks how far the serving state has drifted from its anchor.

    Two components:

    * **adapter norm** — Frobenius norm of the applied LoRA deltas (local
      adaptation that the anchor does not have);
    * **base divergence** — row-L2 distance between the node's base tables
      and the training cluster's replica (global updates the node has not
      received).
    """

    def __init__(self, anchor: DLRM) -> None:
        self._anchor_state = anchor.state_dict()
        self.samples: list[DriftSample] = []

    def re_anchor(self, model: DLRM) -> None:
        """Reset the reference point (called right after a full sync)."""
        self._anchor_state = model.state_dict()

    def observe(
        self,
        time_s: float,
        node_model: DLRM,
        lora_collection=None,
        reference: DLRM | None = None,
    ) -> DriftSample:
        """Record the current drift.

        Args:
            time_s: simulation time of the observation.
            node_model: the serving replica (base tables).
            lora_collection: optional adapters applied on top.
            reference: optional training-cluster replica; when given, base
                divergence is measured against it instead of the anchor.
        """
        adapter_norm = 0.0
        if lora_collection is not None:
            for adapter in lora_collection:
                ids = adapter.active_ids
                if ids.size:
                    adapter_norm += float(
                        np.linalg.norm(adapter.delta_rows(ids))
                    )
        divergence = 0.0
        rows = 0
        for f, table in enumerate(node_model.embeddings):
            ref = (
                reference.embeddings[f].weight
                if reference is not None
                else self._anchor_state[f"embeddings.{f}.weight"]
            )
            divergence += float(
                np.linalg.norm(table.weight - ref, axis=1).sum()
            )
            rows += table.num_rows
        sample = DriftSample(
            time_s=time_s,
            adapter_norm=adapter_norm,
            base_divergence=divergence / rows if rows else 0.0,
        )
        self.samples.append(sample)
        return sample


@dataclass
class AdaptiveSyncPolicy:
    """Decides when the mid-term full sync should fire.

    Fires when either the drift threshold is crossed or the maximum
    interval elapses (the paper's hourly cadence acts as the fallback).

    Attributes:
        drift_threshold: total drift triggering an early sync.
        max_interval_s: hard cap between syncs (paper: 3600 s).
        min_interval_s: refractory period to avoid sync storms.
    """

    drift_threshold: float = 1.0
    max_interval_s: float = 3600.0
    min_interval_s: float = 300.0
    _last_sync_s: float = field(default=0.0, repr=False)
    decisions: list[tuple[float, str]] = field(default_factory=list, init=False, repr=False)

    def should_sync(self, now: float, drift: DriftSample | None) -> bool:
        elapsed = now - self._last_sync_s
        if elapsed < self.min_interval_s:
            return False
        if elapsed >= self.max_interval_s:
            self.decisions.append((now, "interval"))
            return True
        if drift is not None and drift.total >= self.drift_threshold:
            self.decisions.append((now, "drift"))
            return True
        return False

    def mark_synced(self, now: float) -> None:
        self._last_sync_s = now

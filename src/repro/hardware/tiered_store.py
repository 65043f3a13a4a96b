"""Tiered embedding storage: GPU HBM + CPU DRAM + remote parameter server.

Section II-B: inference clusters keep 5-10% *hot* embeddings in GPU HBM and
the remaining warm rows in multi-TB CPU DRAM; cold misses fall through to
the remote parameter server.  This module implements the local part of that
hierarchy as an actual row store (reads return real vectors) with per-tier
hit accounting and a latency cost model, so serving experiments can measure
the effect of placement policy on lookup time.  The store holds its whole
table (a single-node deployment), so no read reaches the remote tier.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

__all__ = ["TierStats", "TieredStoreConfig", "TieredEmbeddingStore"]

# Per-row effective latencies (amortised over batched reads), reflecting
# the paper's bandwidth figures: NVLink-class HBM access and DDR5 DRAM.
HBM_LATENCY_US = 0.5
DRAM_LATENCY_US = 2.0


@dataclass
class TierStats:
    """Per-tier access counters."""

    hbm_hits: int = 0
    dram_hits: int = 0

    @property
    def total(self) -> int:
        return self.hbm_hits + self.dram_hits

    @property
    def hbm_hit_ratio(self) -> float:
        return self.hbm_hits / self.total if self.total else 0.0


@dataclass
class TieredStoreConfig:
    """Capacity and placement policy of the HBM tier."""

    hbm_capacity_rows: int = 1000
    promote_on_access: bool = True


class TieredEmbeddingStore:
    """Row store for one embedding table across the HBM and DRAM tiers.

    The DRAM tier holds the whole table.  The HBM tier is an LRU subset
    sized by ``hbm_capacity_rows``; accesses can promote rows into it
    (default), mirroring production hot-row placement.

    Args:
        weight: the ``(rows, d)`` DRAM-resident table.
        config: tier parameters.
    """

    def __init__(
        self,
        weight: np.ndarray,
        config: TieredStoreConfig | None = None,
    ) -> None:
        self.weight = np.asarray(weight, dtype=np.float64)
        self.config = config or TieredStoreConfig()
        self._hbm: OrderedDict[int, None] = OrderedDict()
        self.stats = TierStats()

    # ------------------------------------------------------------- placement
    def preload_hot(self, ids: np.ndarray) -> int:
        """Pin the given ids into HBM (initial hot-set placement).

        Returns how many were admitted before capacity ran out.
        """
        admitted = 0
        for i in np.asarray(ids, dtype=np.int64):
            if len(self._hbm) >= self.config.hbm_capacity_rows:
                break
            self._hbm[int(i)] = None
            admitted += 1
        return admitted

    def _touch_hbm(self, idx: int) -> None:
        self._hbm[idx] = None
        self._hbm.move_to_end(idx)
        while len(self._hbm) > self.config.hbm_capacity_rows:
            self._hbm.popitem(last=False)

    # ---------------------------------------------------------------- lookup
    def lookup(self, ids: np.ndarray) -> tuple[np.ndarray, float]:
        """Fetch rows for ``ids``; returns (rows, modelled latency in us).

        Latency is the sum of per-row tier costs — the quantity the hybrid
        hierarchy is designed to minimise by keeping hot rows in HBM.
        """
        ids = np.asarray(ids, dtype=np.int64)
        out = np.zeros((ids.shape[0], self.weight.shape[1]))
        latency_us = 0.0
        cfg = self.config
        for j, raw in enumerate(ids):
            i = int(raw)
            if i in self._hbm:
                self.stats.hbm_hits += 1
                latency_us += HBM_LATENCY_US
                self._hbm.move_to_end(i)
            else:
                self.stats.dram_hits += 1
                latency_us += DRAM_LATENCY_US
                if cfg.promote_on_access:
                    self._touch_hbm(i)
            out[j] = self.weight[i]
        return out, latency_us

    def mean_lookup_latency_us(self) -> float:
        """Average modelled per-row latency so far."""
        s = self.stats
        if not s.total:
            return 0.0
        total = s.hbm_hits * HBM_LATENCY_US + s.dram_hits * DRAM_LATENCY_US
        return total / s.total

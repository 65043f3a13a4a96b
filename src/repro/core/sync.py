"""Sparse data-parallel LoRA synchronization (Algorithm 3, Section IV-E).

Each inference node (rank) trains its own LoRA replica on local traffic and
tracks the *support* of its updates — the set of (field, row) indices it
modified.  Every ``T_sync`` steps the ranks exchange supports, resolve write
conflicts with the deterministic rank-priority rule (highest rank id wins),
and broadcast the merged adapter state.  Between syncs replicas diverge —
that is the eventual-consistency trade-off Fig. 9 quantifies.

Supports are accumulated as per-step id arrays and consolidated with one
``np.unique`` at sync time; the gather / merge / apply pipeline runs on
whole (ids, rows) arrays via :meth:`LoRAAdapter.gather_rows` and
:meth:`LoRAAdapter.scatter_rows` — no per-support-id Python loop.

Communication cost is modelled with the tree-AllGather collective from
:mod:`repro.cluster.collectives`, which is what gives Fig. 19 its O(log N)
scaling.

When a :class:`repro.cluster.shardstore.ShardedParameterStore` is attached,
every sync round also publishes the merged adapter rows through a batched
:class:`ShardClient` — one version bump per round covering every field —
so replicas that join late (or external observers) can catch up with an
O(changed) ``pull_delta`` instead of a fresh all-to-all exchange.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from ..cluster.collectives import CollectiveCostModel
from ..cluster.network import INFINIBAND_EDR
from ..cluster.shardstore import ClientTransferReport, ShardClient, ShardedParameterStore
from .dtypes import ROW_DTYPE
from .trainer import LoRATrainer

__all__ = [
    "SyncReport",
    "priority_merge_rows",
    "average_merge_rows",
    "SparseLoRASynchronizer",
]


@dataclass
class SyncReport:
    """Outcome of one synchronization round."""

    round_id: int
    merged_rows: int
    bytes_exchanged: float
    allgather_seconds: float
    broadcast_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.allgather_seconds + self.broadcast_seconds


def _no_rows(
    per_rank: list[tuple[np.ndarray, np.ndarray]], width: int
) -> tuple[np.ndarray, np.ndarray]:
    """The empty merge, on the ranks' row lane (the default lane if none)."""
    dtype = per_rank[0][1].dtype if per_rank else ROW_DTYPE
    return np.empty(0, dtype=np.int64), np.empty((0, width), dtype=dtype)


def priority_merge_rows(
    per_rank: list[tuple[np.ndarray, np.ndarray]], width: int
) -> tuple[np.ndarray, np.ndarray]:
    """Rank-priority merge: each id takes the highest rank's row.

    Args:
        per_rank: ``(ids, rows)`` per rank in ascending rank order; all
            ``rows`` must already share ``width`` columns.
        width: row width (needed to shape the empty result).

    Returns:
        ``(merged_ids, merged_rows)`` with ids sorted ascending and each
        id's row taken from the highest rank that modified it.
    """
    if not per_rank or all(ids.size == 0 for ids, _ in per_rank):
        return _no_rows(per_rank, width)
    ids = np.concatenate([p[0] for p in per_rank])
    rows = np.concatenate([p[1] for p in per_rank], axis=0)
    ranks = np.concatenate(
        [np.full(p[0].size, r, dtype=np.int64) for r, p in enumerate(per_rank)]
    )
    order = np.lexsort((ranks, ids))
    sorted_ids = ids[order]
    # last entry of each id group = highest rank (ids unique within a rank)
    winner = np.r_[sorted_ids[1:] != sorted_ids[:-1], True]
    return sorted_ids[winner], rows[order][winner]


def average_merge_rows(
    per_rank: list[tuple[np.ndarray, np.ndarray]], width: int
) -> tuple[np.ndarray, np.ndarray]:
    """Ablation alternative: average each id's rows over the ranks that
    wrote it, instead of picking a winner."""
    if not per_rank or all(ids.size == 0 for ids, _ in per_rank):
        return _no_rows(per_rank, width)
    ids = np.concatenate([p[0] for p in per_rank])
    rows = np.concatenate([p[1] for p in per_rank], axis=0)
    merged_ids, inverse, counts = np.unique(
        ids, return_inverse=True, return_counts=True
    )
    sums = np.zeros((merged_ids.size, width), dtype=rows.dtype)
    np.add.at(sums, inverse, rows)
    # Divide on the rows' lane: int64 counts would promote float32 to float64.
    return merged_ids, sums / counts[:, None].astype(rows.dtype)


class SparseLoRASynchronizer:
    """Coordinates LoRA replicas across inference nodes.

    Args:
        trainers: one :class:`LoRATrainer` per rank, *in rank order* (rank id
            = list position, which drives merge priority).
        sync_interval: steps between synchronization rounds (``T_sync``).
        store: optional sharded parameter store; when given, each round's
            merged adapter rows are published through a batched client
            (tables ``lora_a/<field>``, one version per round).

    The cost model and the store client run over the intra-cluster
    InfiniBand EDR fabric.
    """

    def __init__(
        self,
        trainers: list[LoRATrainer],
        sync_interval: int = 64,
        merge_policy: str = "priority",
        store: ShardedParameterStore | None = None,
    ) -> None:
        if not trainers:
            raise ValueError("need at least one rank")
        if sync_interval <= 0:
            raise ValueError("sync interval must be positive")
        if merge_policy not in ("priority", "average"):
            raise ValueError("merge_policy must be 'priority' or 'average'")
        self.merge_policy = merge_policy
        self.trainers = trainers
        self.sync_interval = sync_interval
        self.cost = CollectiveCostModel(INFINIBAND_EDR)
        self.num_fields = len(trainers[0].lora)
        # S_r per field: id-array chunks modified since the last sync,
        # consolidated with one np.unique at sync time.
        self._supports: list[list[list[np.ndarray]]] = [
            [[] for _ in range(self.num_fields)] for _ in trainers
        ]
        self.steps = 0
        self.rounds = 0
        self.reports: list[SyncReport] = []
        self.store_client = (
            ShardClient(store, link=INFINIBAND_EDR) if store is not None else None
        )
        self.publish_reports: list[ClientTransferReport] = []

    @property
    def num_ranks(self) -> int:
        return len(self.trainers)

    # -------------------------------------------------------------- training
    def local_step(self, rank: int, dense, sparse_ids, labels) -> float:
        """One local update on rank ``r``, tracking its support set."""
        trainer = self.trainers[rank]
        loss = trainer.train_on(dense, sparse_ids, labels)
        # The step already resolved each field's batch ids to a sorted
        # unique array; that array is the step's support.
        for f in range(self.num_fields):
            self._supports[rank][f].append(trainer.last_update_ids[f])
        return loss

    def step_all(self, batches) -> list[float]:
        """Feed one batch per rank, then sync if the interval elapsed.

        Args:
            batches: sequence of (dense, sparse_ids, labels) per rank.
        """
        losses = [
            self.local_step(r, *batch) for r, batch in enumerate(batches)
        ]
        self.steps += 1
        if self.steps % self.sync_interval == 0:
            self.sync()
        return losses

    # ------------------------------------------------------------------ sync
    def _support_ids(self, rank: int, field: int) -> np.ndarray:
        """Consolidated support set S_r for one field (sorted, unique)."""
        chunks = self._supports[rank][field]
        if not chunks:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(chunks))

    def _gather_rank_rows(
        self, field: int, target_rank: int, support: list[list[np.ndarray]]
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Each rank's modified A rows for one field, padded to ``target_rank``."""
        out: list[tuple[np.ndarray, np.ndarray]] = []
        for r, trainer in enumerate(self.trainers):
            adapter = trainer.lora[field]
            ids, rows = adapter.gather_rows(support[r][field])
            if rows.shape[1] != target_rank:
                padded = np.zeros((rows.shape[0], target_rank), dtype=rows.dtype)
                width = min(rows.shape[1], target_rank)
                padded[:, :width] = rows[:, :width]
                rows = padded
            out.append((ids, rows))
        return out

    def sync(self) -> SyncReport:
        """One full Algorithm-3 round: gather, merge, broadcast."""
        self.rounds += 1
        merged_rows = 0
        bytes_per_rank = 0.0
        # Consolidate every rank's support chunks exactly once per round.
        support = [
            [self._support_ids(r, f) for f in range(self.num_fields)]
            for r in range(self.num_ranks)
        ]
        # Highest rank that performed any update wins the dense B factors
        # (B's "indices" are in every updating rank's support, so the
        # max-rank rule selects the top updater).
        top_rank = max(
            (
                r
                for r in range(self.num_ranks)
                if any(support[r][f].size for f in range(self.num_fields))
            ),
            default=None,
        )
        merge_fn = (
            priority_merge_rows
            if self.merge_policy == "priority"
            else average_merge_rows
        )
        for f in range(self.num_fields):
            target_rank = max(
                (t.lora[f].rank for t in self.trainers), default=1
            )
            per_rank = self._gather_rank_rows(f, target_rank, support)
            merged_ids, merged = merge_fn(per_rank, target_rank)
            merged_rows += merged_ids.size
            if self.store_client is not None and merged_ids.size:
                self.store_client.stage(f"lora_a/{f}", merged_ids, merged)
            bytes_per_rank += sum(
                rows.nbytes for _, rows in per_rank
            ) / max(self.num_ranks, 1)
            for trainer in self.trainers:
                adapter = trainer.lora[f]
                if adapter.rank != target_rank:
                    adapter.resize_rank(target_rank)
                if top_rank is not None:
                    adapter.b = self.trainers[top_rank].lora[f].b.copy()
                adapter.scatter_rows(merged_ids, merged)
                trainer.hot_filter.mark(f, merged_ids)
        # The exchange is an aggregating tree: payload stays near the merged
        # size at every level because replicas touch overlapping hot ids.
        merged_bytes = bytes_per_rank * self.num_ranks
        allgather_s = self.cost.tree_merge(self.num_ranks, merged_bytes)
        broadcast_s = self.cost.broadcast_tree(self.num_ranks, merged_bytes)
        if self.store_client is not None:
            # One version bump covers every field's merged rows this round.
            self.publish_reports.append(self.store_client.flush())
        for r in range(self.num_ranks):
            for f in range(self.num_fields):
                self._supports[r][f].clear()
        report = SyncReport(
            round_id=self.rounds,
            merged_rows=merged_rows,
            bytes_exchanged=bytes_per_rank * self.num_ranks,
            allgather_seconds=allgather_s,
            broadcast_seconds=broadcast_s,
        )
        self.reports.append(report)
        return report

    # -------------------------------------------------------------- analysis
    def replica_divergence(self, field: int = 0) -> float:
        """Max pairwise Frobenius gap between replicas' applied updates.

        Zero right after a sync for the ids in the merged set; grows between
        syncs — the consistency metric behind Fig. 9.
        """
        if self.num_ranks < 2:
            return 0.0
        ids_arr = np.unique(
            np.concatenate(
                [t.lora[field].active_ids for t in self.trainers]
            )
        )
        if ids_arr.size == 0:
            return 0.0
        deltas = [t.lora[field].delta_rows(ids_arr) for t in self.trainers]
        return max(
            float(np.linalg.norm(a - b)) for a, b in combinations(deltas, 2)
        )

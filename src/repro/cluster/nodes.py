"""Training-cluster and inference-node actors.

These wrap the DLRM substrate into the deployment roles of Fig. 2:

* :class:`TrainingCluster` continuously trains its own replica on the
  streaming data and pushes changed embedding rows to the parameter plane.
* :class:`InferenceNode` serves predictions from a (possibly stale) replica
  and can pull deltas from the parameter plane to catch up.

Both operate on real parameters so accuracy timelines are measured, not
modelled, and both speak to the store through a
:class:`repro.cluster.shardstore.ShardClient` session: the trainer stages
every touched table and flushes the window as ONE version bump (version
batching across tables), and the node pulls all tables' deltas in one
batched round against its client sync point.  Transfer *times* come from
the client's network cost model.  The ``server`` is the
:class:`ShardedParameterStore` itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.synthetic import Batch
from ..dlrm.model import DLRM
from ..dlrm.optim import RowwiseAdagrad
from .network import GBE_100
from .shardstore import ShardClient, ShardedParameterStore

__all__ = ["PushReport", "PullReport", "TrainingCluster", "InferenceNode"]


@dataclass
class PushReport:
    """Result of one training-cluster publish event."""

    version: int
    rows_pushed: int
    bytes_pushed: int
    transfer_seconds: float


@dataclass
class PullReport:
    """Result of one inference-node delta pull.

    ``transfer_seconds`` is the client's modelled time for the pull (the
    resilient wave's, when the client has a policy).  ``degraded`` is True
    when a resilient client could not answer the pull exactly within its
    deadline: nothing was applied, the node's sync point did not advance,
    and it keeps serving its current replica, at most
    :meth:`InferenceNode.staleness_versions` publishes behind.
    """

    version: int
    rows_pulled: int
    bytes_pulled: int
    transfer_seconds: float
    degraded: bool = False


class TrainingCluster:
    """The GPU training tier: trains a replica, publishes deltas.

    Args:
        model: the training replica (owned and mutated).
        server: destination parameter plane.
        lr: learning rate of the row-wise Adagrad optimizer.

    Publishes flush through a plain client over the 100 GbE link.
    """

    def __init__(
        self,
        model: DLRM,
        server: ShardedParameterStore,
        lr: float = 0.05,
    ) -> None:
        self.model = model
        self.server = server
        self.client = ShardClient(server)
        self.optimizer = RowwiseAdagrad(lr=lr)
        self.steps_trained = 0

    def train_on(self, batch: Batch, update_dense: bool = True) -> float:
        """One mini-batch step; returns the loss."""
        result = self.model.train_step(
            batch.dense, batch.sparse_ids, batch.labels, self.optimizer,
            update_dense=update_dense,
        )
        self.steps_trained += 1
        return result.loss

    def publish_changed_rows(self) -> PushReport:
        """Push every row touched since the last publish (delta push).

        All tables are staged on the client and flushed as one publish
        event: one version bump per window however many tables changed.
        The touched set drains straight from each table's epoch-stamp lane
        (:class:`repro.core.kernels.TouchedRows`) — one vectorized scan per
        table, no per-id bookkeeping.

        Raises
        ------
        repro.cluster.shardstore.store.QuorumError
            When the store (replicated) cannot reach its write quorum
            mid-window.  The window's rows stay staged on the client, so
            calling this again after the fleet heals retries the same
            publish — a refused window is loud and retryable, never a
            silent row loss.
        """
        for f, table in enumerate(self.model.embeddings):
            touched = table.drain_touched()
            if touched.size == 0:
                continue
            self.client.stage(f"table_{f}", touched, table.weight[touched])
        report = self.client.flush()
        return PushReport(
            version=report.version,
            rows_pushed=report.rows,
            bytes_pushed=report.bytes,
            transfer_seconds=report.seconds,
        )


class InferenceNode:
    """One serving replica that pulls updates from the parameter plane.

    A pull the live replica set cannot answer exactly never skips
    updates: the node applies nothing and keeps its sync point, and its
    plain :class:`ShardClient` raises
    :class:`~repro.cluster.resilience.errors.DegradedReadError`.
    """

    def __init__(
        self,
        model: DLRM,
        server: ShardedParameterStore,
        node_id: int = 0,
    ) -> None:
        self.model = model
        self.server = server
        self.link = GBE_100
        self.node_id = node_id
        self.client = ShardClient(server)
        self.pull_log: list[PullReport] = []

    @property
    def synced_version(self) -> int:
        return self.client.synced_version

    def predict(self, batch: Batch, overlay=None) -> np.ndarray:
        return self.model.predict(batch.dense, batch.sparse_ids, overlay=overlay)

    def staleness_versions(self) -> int:
        """How many publish events behind the store this node is."""
        return self.client.staleness_versions()

    def pull_updates(self) -> PullReport:
        """Apply every delta newer than our synced version, one batched round.

        A pull the replicas cannot answer exactly applies nothing and
        keeps the sync point, so the pull after repair catches up fully.
        Ids outside the node's tables (negative, or past the last row)
        are dropped, not applied and not counted.

        The node builds a plain client, so such a pull raises.  Only
        tests swap a client with a resilience policy into ``self.client``;
        with one, the same pull returns a report with ``degraded=True``,
        every served row is the one last applied, and
        :meth:`staleness_versions` is how many publishes the node is
        behind.

        Returns:
            The pull's report.

        Raises:
            repro.cluster.resilience.errors.DegradedReadError: the
                replicas could not answer the pull exactly.
        """
        tables = [f"table_{f}" for f in range(len(self.model.embeddings))]
        deltas, transfer = self.client.pull_tables(tables)
        # A degraded pull (resilient client only) returns empty deltas:
        # nothing is applied and the sync point stays, so the report says
        # so instead of faking progress.
        total_rows = 0
        for f, table in enumerate(self.model.embeddings):
            indices, rows = deltas[tables[f]]
            if indices.size == 0:
                continue
            valid = (indices >= 0) & (indices < table.num_rows)
            table.assign_rows(indices[valid], rows[valid])
            total_rows += int(valid.sum())
        report = PullReport(
            version=self.synced_version,
            rows_pulled=total_rows,
            bytes_pulled=total_rows * self.client.store.row_bytes,
            transfer_seconds=transfer.seconds,
            degraded=transfer.degraded,
        )
        self.pull_log.append(report)
        return report

    def adopt_model(self, source: DLRM) -> None:
        """Full-parameter refresh from a source replica (hourly full sync)."""
        self.model.load_state_dict(source.state_dict())
        self.client.mark_synced()

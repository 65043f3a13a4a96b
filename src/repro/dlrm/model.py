"""The DLRM model: embeddings + bottom MLP + dot interaction + top MLP.

The model follows Fig. 1 of the paper (and Naumov et al.'s reference DLRM):

* dense features -> bottom MLP -> a ``d``-dimensional dense vector,
* sparse features -> per-field embedding lookup,
* dense vector + embeddings -> pairwise dot interaction,
* interaction output -> top MLP -> logit -> sigmoid -> CTR.

Training minimises binary cross-entropy; the backward pass produces row-sparse
embedding gradients (the raw material of the paper's low-rank analysis) plus
dense grads for both MLPs.  The sparse backward accumulates duplicate ids
through :func:`repro.core.kernels.group_rows_sum` (duplicate-sparse
scatter-add) and the optimizer's row updates stamp the tables'
:class:`repro.core.kernels.TouchedRows` epoch lanes, so a full
``train_step -> touched-row drain -> delta publish`` cycle runs as whole-array
passes.

The forward pass gathers every field's rows straight into the interaction
layer's field-major ``(1 + fields, batch, d)`` slab — no per-field
temporary, no stacking — and accepts an *embedding overlay*: a callable
that adjusts one field's looked-up rows, in place in the slab.  LiveUpdate
uses this hook to serve ``W_base[i] + A[i] B`` for hot ids without mutating
the base table (Section IV-A, inference path step 3).  A frozen-base
caller (the inference-side LoRA trainer) runs :meth:`DLRM.backward` with
``dense_grads=False`` and pays for the embedding gradients only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.dtypes import SERVE, DTypePolicy, as_float_rows
from .embedding import EmbeddingBagCollection, EmbeddingTable, SparseRowGrad
from .interaction import DotInteraction
from .mlp import MLP, ActivationCache, DenseGrads

__all__ = ["DLRMConfig", "ForwardCache", "TrainStepResult", "DLRM", "sigmoid"]

# Overlay signature: (field_index, ids, rows) -> the rows to serve.  ``rows``
# is the field's slab plane: adjust it in place and return it (the fast
# path), or return replacement rows for the model to copy in.
EmbeddingOverlay = Callable[[int, np.ndarray, np.ndarray], np.ndarray]


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function (lane-preserving: float32
    logits yield float32 probabilities)."""
    z = as_float_rows(z, name="logits")
    # exp(-|z|) never overflows; each branch is the textbook stable form
    # for its sign, evaluated over the whole array instead of two masked
    # gathers.
    ez = np.exp(-np.abs(z))
    denom = 1.0 + ez
    return np.where(z >= 0, 1.0 / denom, ez / denom)


@dataclass
class DLRMConfig:
    """Hyper-parameters of a DLRM instance.

    Attributes:
        num_dense: number of continuous input features.
        embedding_dim: shared dimension ``d`` of every table.
        table_sizes: vocabulary size per sparse field.
        bottom_mlp: hidden sizes of the bottom MLP (output forced to ``d``).
        top_mlp: hidden sizes of the top MLP (output forced to 1 logit).
        seed: RNG seed for parameter init.
        policy: dtype lane of the whole stack — tables, MLPs,
            interaction, sigmoid — for training and serving alike;
            :data:`repro.core.dtypes.SERVE` (float32 rows).  The tests
            pass a float64 policy to build their oracle.
    """

    num_dense: int = 4
    embedding_dim: int = 16
    table_sizes: tuple[int, ...] = (1000, 1000, 500)
    bottom_mlp: tuple[int, ...] = (32, 16)
    top_mlp: tuple[int, ...] = (64, 32)
    seed: int = 0
    policy: DTypePolicy = SERVE

    def validate(self) -> None:
        if self.num_dense <= 0 or self.embedding_dim <= 0:
            raise ValueError("num_dense and embedding_dim must be positive")
        if not self.table_sizes:
            raise ValueError("at least one sparse field is required")


@dataclass
class ForwardCache:
    """Everything backward needs from a forward pass.

    ``slab`` is a view of the model's reused interaction scratch, so a
    cache is good for one :meth:`DLRM.backward` *before the model's next
    forward*; ``serial`` lets backward refuse a stale one.
    """

    dense_in: np.ndarray
    sparse_ids: np.ndarray
    bottom_cache: ActivationCache
    slab: np.ndarray
    top_cache: ActivationCache
    logits: np.ndarray
    probs: np.ndarray
    serial: int


@dataclass
class TrainStepResult:
    """Outputs of one mini-batch training step."""

    loss: float
    probs: np.ndarray
    embedding_grads: list[SparseRowGrad]
    # ``None`` from a frozen-base backward (``dense_grads=False``).
    bottom_grads: DenseGrads | None
    top_grads: DenseGrads | None


class DLRM:
    """A complete DLRM with exact NumPy forward/backward."""

    # Bumped by every forward; a ForwardCache carries the value it was made at.
    _forward_serial = 0

    def __init__(self, config: DLRMConfig) -> None:
        config.validate()
        self.config = config
        rng = np.random.default_rng(config.seed)
        d = config.embedding_dim
        lane = config.policy.row_dtype
        self.embeddings = EmbeddingBagCollection(
            [
                EmbeddingTable(size, d, rng=rng, name=f"table_{f}", dtype=lane)
                for f, size in enumerate(config.table_sizes)
            ]
        )
        self.bottom = MLP(
            [config.num_dense, *config.bottom_mlp, d],
            rng=rng,
            final_relu=True,
            dtype=lane,
        )
        num_features = 1 + len(config.table_sizes)
        self.interaction = DotInteraction(num_features, d, dtype=lane)
        self.top = MLP(
            [self.interaction.output_dim, *config.top_mlp, 1],
            rng=rng,
            dtype=lane,
        )

    # ------------------------------------------------------------------ sizes
    @property
    def num_sparse_fields(self) -> int:
        return len(self.embeddings)

    @property
    def embedding_bytes(self) -> int:
        return self.embeddings.nbytes

    @property
    def dense_params(self) -> int:
        return self.bottom.num_params + self.top.num_params

    # ---------------------------------------------------------------- forward
    def forward(
        self,
        dense: np.ndarray,
        sparse_ids: np.ndarray,
        overlay: EmbeddingOverlay | None = None,
    ) -> ForwardCache:
        """Full forward pass returning probabilities and the backward cache.

        Args:
            dense: ``(batch, num_dense)`` continuous features.
            sparse_ids: ``(batch, num_fields)`` categorical ids.
            overlay: optional per-field adjustment applied to looked-up rows
                (LiveUpdate's hot-id LoRA path).
        """
        policy = self.config.policy
        dense = policy.as_rows(dense, name="dense features")
        sparse_ids = np.asarray(sparse_ids, dtype=np.int64)
        if sparse_ids.ndim != 2 or sparse_ids.shape[1] != len(self.embeddings):
            raise ValueError(
                f"expected sparse ids of shape (batch, {len(self.embeddings)}), "
                f"got {sparse_ids.shape}"
            )
        bottom_out, bottom_cache = self.bottom.forward(dense)
        slab = self.interaction.slab(dense.shape[0])
        slab[0] = bottom_out
        # One contiguous id row per field: the range check, the gather and
        # the overlay's lookups all run on it.
        field_ids = np.ascontiguousarray(sparse_ids.T)
        for f, table in enumerate(self.embeddings):
            rows = table.lookup(field_ids[f], out=slab[1 + f])
            if overlay is not None:
                adjusted = overlay(f, field_ids[f], rows)
                if adjusted is not rows:
                    rows[...] = policy.as_rows(adjusted, name="overlay rows")
        logits, top_cache = self.top.forward(self.interaction.forward(slab))
        self._forward_serial += 1
        return ForwardCache(
            dense_in=dense,
            sparse_ids=sparse_ids,
            bottom_cache=bottom_cache,
            slab=slab,
            top_cache=top_cache,
            logits=logits,
            probs=sigmoid(logits[:, 0]),
            serial=self._forward_serial,
        )

    def predict(
        self,
        dense: np.ndarray,
        sparse_ids: np.ndarray,
        overlay: EmbeddingOverlay | None = None,
    ) -> np.ndarray:
        """Inference-only path: returns ``(batch,)`` click probabilities."""
        return self.forward(dense, sparse_ids, overlay=overlay).probs

    # --------------------------------------------------------------- backward
    def backward(
        self,
        cache: ForwardCache,
        labels: np.ndarray,
        dense_grads: bool = True,
    ) -> TrainStepResult:
        """BCE backward pass from a cached forward.

        ``dense_grads=False`` is the frozen-base lane: the same body, but
        both MLPs' weight/bias gradients and the whole bottom-MLP backward
        are skipped (``bottom_grads``/``top_grads`` come back ``None``);
        the embedding gradients are bit-identical to the full pass.
        """
        if cache.serial != self._forward_serial:
            raise RuntimeError(
                "stale ForwardCache: its slab was reused by a later forward"
            )
        # Labels join on the model's lane so the loss and every gradient
        # stay in one dtype instead of silently upcasting to float64.
        labels = np.asarray(labels, dtype=cache.probs.dtype).ravel()
        batch = labels.shape[0]
        probs = cache.probs
        eps = 1e-12
        loss = float(
            -(
                labels * np.log(probs + eps)
                + (1 - labels) * np.log(1 - probs + eps)
            ).mean()
        )
        # dL/dlogit for sigmoid + BCE, averaged over the batch.
        grad_logit = ((probs - labels) / batch)[:, None]
        grad_inter, top_grads = self.top.backward(
            cache.top_cache, grad_logit, param_grads=dense_grads
        )
        grad_slab = self.interaction.backward(cache.slab, grad_inter)
        bottom_grads = None
        if dense_grads:
            _, bottom_grads = self.bottom.backward(
                cache.bottom_cache, grad_slab[0]
            )
        emb_grads = [
            table.grad_from_output(cache.sparse_ids[:, f], grad_slab[1 + f])
            for f, table in enumerate(self.embeddings)
        ]
        return TrainStepResult(
            loss=loss,
            probs=probs,
            embedding_grads=emb_grads,
            bottom_grads=bottom_grads,
            top_grads=top_grads,
        )

    def loss_and_grads(
        self, dense: np.ndarray, sparse_ids: np.ndarray, labels: np.ndarray
    ) -> TrainStepResult:
        """Convenience: forward + backward without applying updates."""
        return self.backward(self.forward(dense, sparse_ids), labels)

    def train_step(
        self,
        dense: np.ndarray,
        sparse_ids: np.ndarray,
        labels: np.ndarray,
        optimizer,
        update_dense: bool = True,
    ) -> TrainStepResult:
        """One SGD/Adagrad step over a mini-batch.

        Args:
            optimizer: object with ``step_sparse(table, grad)`` and
                ``step_dense(mlp, grads)`` methods.  Sparse steps are
                expected to mark updated rows on the table (both built-in
                optimizers do) so delta strategies see them.
            update_dense: set ``False`` to freeze MLPs (the paper's
                inference-side trainer only adapts embeddings).
        """
        result = self.loss_and_grads(dense, sparse_ids, labels)
        for table, grad in zip(self.embeddings, result.embedding_grads):
            optimizer.step_sparse(table, grad)
        if update_dense:
            optimizer.step_dense(self.bottom, result.bottom_grads)
            optimizer.step_dense(self.top, result.top_grads)
        return result

    # -------------------------------------------------------------- lifecycle
    def copy(self) -> "DLRM":
        """Deep copy used to fork training-cluster vs inference replicas."""
        dup = DLRM.__new__(DLRM)
        dup.config = self.config
        dup.embeddings = self.embeddings.copy()
        dup.bottom = self.bottom.copy()
        dup.top = self.top.copy()
        dup.interaction = DotInteraction(
            self.interaction.num_features,
            self.interaction.dim,
            dtype=self.interaction.dtype,
        )
        return dup

    def state_dict(self) -> dict[str, np.ndarray]:
        """Flat parameter snapshot (checkpointing / drift measurement)."""
        state: dict[str, np.ndarray] = {}
        for f, table in enumerate(self.embeddings):
            state[f"embeddings.{f}.weight"] = table.weight.copy()
        for i, (w, b) in enumerate(zip(self.bottom.weights, self.bottom.biases)):
            state[f"bottom.{i}.weight"] = w.copy()
            state[f"bottom.{i}.bias"] = b.copy()
        for i, (w, b) in enumerate(zip(self.top.weights, self.top.biases)):
            state[f"top.{i}.weight"] = w.copy()
            state[f"top.{i}.bias"] = b.copy()
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        for f, table in enumerate(self.embeddings):
            table.weight[...] = state[f"embeddings.{f}.weight"]
        for i in range(self.bottom.num_layers):
            self.bottom.weights[i][...] = state[f"bottom.{i}.weight"]
            self.bottom.biases[i][...] = state[f"bottom.{i}.bias"]
        for i in range(self.top.num_layers):
            self.top.weights[i][...] = state[f"top.{i}.weight"]
            self.top.biases[i][...] = state[f"top.{i}.bias"]

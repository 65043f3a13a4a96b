"""Optimizers for DLRM training.

Two flavours are provided:

* :class:`SGD` — plain stochastic gradient descent.
* :class:`RowwiseAdagrad` — the de-facto industry choice for embedding
  tables (used by TorchRec); keeps one accumulator scalar per row so that
  memory overhead stays O(|V|) instead of O(|V| x d).

Both understand the :class:`~repro.dlrm.embedding.SparseRowGrad` format so
that only touched rows pay update cost, matching production behaviour.
The sparse step is one fused gather -> update -> scatter pass, and touched
rows are stamped into the table's epoch lane — no per-id Python work.
"""

from __future__ import annotations

import weakref

import numpy as np

from ..obs.metrics import registry as _obs_registry
from .embedding import EmbeddingTable, SparseRowGrad
from .mlp import MLP, DenseGrads, _param_views, clip_by_global_norm

__all__ = ["SGD", "RowwiseAdagrad"]

_REG = _obs_registry()
_ROWS_UPDATED = _REG.counter(
    "dlrm.optim.rows_updated", help="unique embedding rows updated sparsely"
)


class SGD:
    """Plain SGD for dense modules and sparse embedding rows.

    ``max_grad_norm`` enables global-norm clipping of dense grads (one
    flat-buffer norm + scale via
    :func:`~repro.dlrm.mlp.clip_by_global_norm`); ``None`` disables it.
    """

    def __init__(self, lr: float = 0.01, max_grad_norm: float | None = None) -> None:
        if lr <= 0:
            raise ValueError("lr must be positive")
        if max_grad_norm is not None and max_grad_norm <= 0:
            raise ValueError("max_grad_norm must be positive when set")
        self.lr = lr
        self.max_grad_norm = max_grad_norm

    def step_dense(self, mlp: MLP, grads: DenseGrads) -> None:
        if self.max_grad_norm is not None:
            grads, _ = clip_by_global_norm(grads, self.max_grad_norm)
        mlp.apply_grads(grads, self.lr)

    def step_sparse(self, table: EmbeddingTable, grad: SparseRowGrad) -> None:
        table.apply_sparse_update(grad, self.lr)
        if _REG.enabled:
            _ROWS_UPDATED.add(grad.indices.size)


class RowwiseAdagrad:
    """Row-wise Adagrad for embedding tables.

    Each row ``i`` keeps a scalar accumulator ``s_i`` updated with the mean
    squared gradient of the row; the effective step is
    ``lr / sqrt(s_i + eps)``.  Dense modules fall back to full Adagrad with
    per-parameter accumulators.

    Accumulators are keyed by the live module object through a
    ``WeakKeyDictionary`` so one optimizer can drive many tables/MLPs, the
    way a training job owns all modules.  Weak keying makes the association
    robust: a garbage-collected table drops its state with it (the former
    ``id(table)`` keys could alias a new object's id and silently hand it
    stale accumulators), ``copy()`` forks start with fresh state, and
    in-place refreshes (``load_state_dict``) keep their history.  When a
    table grows, row state grows with it instead of being zeroed.  Row
    and dense state take their module's dtype, so a float32 model's step
    never upcasts.
    """

    def __init__(self, lr: float = 0.05, eps: float = 1e-8) -> None:
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.lr = lr
        self.eps = eps
        self._row_state: "weakref.WeakKeyDictionary[EmbeddingTable, np.ndarray]" = (
            weakref.WeakKeyDictionary()
        )
        self._dense_state: "weakref.WeakKeyDictionary[MLP, tuple[list[np.ndarray], list[np.ndarray]]]" = (
            weakref.WeakKeyDictionary()
        )

    # ------------------------------------------------------------ sparse path
    def _rows_for(self, table: EmbeddingTable) -> np.ndarray:
        state = self._row_state.get(table)
        if state is None:
            state = np.zeros(table.num_rows, dtype=table.dtype)
            self._row_state[table] = state
        elif state.shape[0] != table.num_rows:
            # The table was resized in place (vocabulary growth): carry the
            # overlapping accumulator history instead of restarting it.
            grown = np.zeros(table.num_rows, dtype=state.dtype)
            keep = min(state.shape[0], table.num_rows)
            grown[:keep] = state[:keep]
            state = grown
            self._row_state[table] = state
        return state

    def step_sparse(self, table: EmbeddingTable, grad: SparseRowGrad) -> None:
        """Fused gather -> accumulate -> scatter sparse update.

        ``grad.indices`` are unique by the :class:`SparseRowGrad` contract,
        so the accumulator gather/scatter pair is exact; the row scale and
        weight update reuse the gathered accumulator without re-probing.
        """
        state = self._rows_for(table)
        idx = grad.indices
        g2 = np.einsum("ij,ij->i", grad.rows, grad.rows) / grad.rows.shape[1]
        acc = state[idx] + g2
        state[idx] = acc
        table.weight[idx] -= (self.lr / np.sqrt(acc + self.eps))[:, None] * grad.rows
        table.mark_touched(idx)
        if _REG.enabled:
            _ROWS_UPDATED.add(idx.size)

    # ------------------------------------------------------------- dense path
    def step_dense(self, mlp: MLP, grads: DenseGrads) -> None:
        """Full Adagrad over one flat accumulator buffer.

        The per-layer accumulators are views over a single flat array
        mirroring the MLP's parameter layout, so grads produced by the
        fused :meth:`MLP.backward` update in one whole-buffer pass; grads
        built from plain lists fall back to the per-layer loop.
        """
        state = self._dense_state.get(mlp)
        if state is None:
            acc_flat = np.zeros(mlp.num_params, dtype=mlp.dtype)
            acc_w, acc_b = _param_views(
                acc_flat,
                [w.shape for w in mlp.weights],
                [b.shape for b in mlp.biases],
            )
            state = (acc_flat, acc_w, acc_b)
            self._dense_state[mlp] = state
        acc_flat, acc_w, acc_b = state
        gflat = grads._flat
        if (
            gflat is not None
            and gflat.size == acc_flat.size
            and gflat.dtype == acc_flat.dtype
        ):
            acc_flat += gflat ** 2
            mlp._params -= self.lr * gflat / np.sqrt(acc_flat + self.eps)
            return
        for w, gw, aw in zip(mlp.weights, grads.weights, acc_w):
            aw += gw ** 2
            w -= self.lr * gw / np.sqrt(aw + self.eps)
        for b, gb, ab in zip(mlp.biases, grads.biases, acc_b):
            ab += gb ** 2
            b -= self.lr * gb / np.sqrt(ab + self.eps)

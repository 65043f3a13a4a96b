"""Plain SGD for the DLRM, the optimizer tests step with.

Every workload trains with ``RowwiseAdagrad``; plain SGD stays as the
simplest optimizer a test can drive ``DLRM.train_step`` with when it
checks gradient flow or replica consistency rather than an optimizer.
Its two updates are the fused dense axpy over an ``MLP``'s flat
parameter buffer and the row update of an ``EmbeddingTable``.
"""

from __future__ import annotations

from repro.dlrm.embedding import EmbeddingTable, SparseRowGrad
from repro.dlrm.mlp import MLP, DenseGrads


def apply_grads(mlp: MLP, grads: DenseGrads, lr: float) -> None:
    """In-place SGD step: one fused axpy when the grads are flat-backed
    (the ``MLP.backward`` product), per-layer otherwise."""
    flat = grads._flat
    if flat is not None and flat.size == mlp._params.size and flat.dtype == mlp.dtype:
        mlp._params -= lr * flat
        return
    for w, gw in zip(mlp.weights, grads.weights):
        w -= lr * gw
    for b, gb in zip(mlp.biases, grads.biases):
        b -= lr * gb


def apply_sparse_update(table: EmbeddingTable, grad: SparseRowGrad, lr: float) -> None:
    """Plain SGD row update; marks rows as touched for delta tracking."""
    table.weight[grad.indices] -= lr * grad.rows
    table.mark_touched(grad.indices)


class SGD:
    """Plain SGD for dense modules and sparse embedding rows."""

    def __init__(self, lr: float = 0.01) -> None:
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.lr = lr

    def step_dense(self, mlp: MLP, grads: DenseGrads) -> None:
        apply_grads(mlp, grads, self.lr)

    def step_sparse(self, table: EmbeddingTable, grad: SparseRowGrad) -> None:
        apply_sparse_update(table, grad, self.lr)

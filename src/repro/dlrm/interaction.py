"""Feature-interaction layer for DLRM.

DLRM combines the bottom-MLP output with all embedding vectors via pairwise
dot products (Fig. 1 in the paper).  Given ``m`` vectors of dimension ``d``
per sample, the layer emits the ``m * (m - 1) / 2`` distinct dot products,
concatenated with the dense vector itself — exactly the ``dot`` interaction
of the reference DLRM implementation.

The layer owns the model plane's *slab*: one field-major ``(m, batch, d)``
buffer whose plane 0 is the dense vector and whose plane ``1 + f`` holds
field ``f``'s embedding rows.  The model gathers (and overlays) straight
into it, so nothing is stacked or copied between lookup and interaction.
"""

from __future__ import annotations

import numpy as np

from ..core.dtypes import SERVE

__all__ = ["DotInteraction"]

# Largest feature count served by the direct pair kernel.  Measured at
# d = 16, batch 256-6000: one row-product einsum per feature beats the
# per-sample gram GEMM up to m = 8 (m = 5: 1.0 vs 1.7 ms at batch 6000)
# and loses from m = 12 on (C(m, 2) grows past what the m x m GEMM costs).
_DIRECT_MAX_FEATURES = 8


def _grown(batch: int) -> int:
    """Scratch rows to allocate when ``batch`` outgrows what is there."""
    return batch + batch // 4


class DotInteraction:
    """Pairwise dot-product interaction with dense passthrough.

    Both passes work on the field-major slab.  The forward pair kernel is
    chosen by shape: for few features the ``C(m, 2)`` row products are
    computed directly (no gram, no gather); for many, one batched gram
    matmul over the slab's ``(batch, m, d)`` view followed by a fixed
    upper-triangle gather.  Backward is one batched matmul either way.
    ``dtype`` selects the lane (float32; float64 for a test oracle).

    Scratch (the slab, the gram and its gradient) grows to the largest
    batch seen — plus a quarter, so a run of record sizes reallocates
    once, not once per record — and is sliced, so alternating batch sizes
    never reallocate.  None of it escapes except through :meth:`slab`,
    whose result is only valid until the next :meth:`slab` call.
    """

    def __init__(
        self, num_features: int, dim: int, dtype=SERVE.row_dtype
    ) -> None:
        """``num_features`` counts the dense vector plus every sparse field."""
        if num_features < 2:
            raise ValueError("interaction needs at least two feature vectors")
        self.num_features = num_features
        self.dim = dim
        self.dtype = np.dtype(dtype)
        # Upper-triangle index pairs, fixed ordering shared by fwd/bwd, as
        # flattened (m, m) offsets of both triangles: gather/scatter on the
        # reshaped gram avoids the slower two-axis fancy-indexing path.
        li, lj = np.triu_indices(num_features, k=1)
        self._flat_upper = li * num_features + lj
        self._flat_lower = lj * num_features + li
        m = num_features
        self._slab = np.empty((m, 0, dim), dtype=self.dtype)
        self._gram = np.empty((0, m, m), dtype=self.dtype)
        self._gram_grad = np.zeros((0, m, m), dtype=self.dtype)

    @property
    def output_dim(self) -> int:
        """Width of the interaction output: dense ``d`` + C(m, 2) pairs."""
        m = self.num_features
        return self.dim + m * (m - 1) // 2

    def slab(self, batch: int) -> np.ndarray:
        """The ``(m, batch, d)`` feature slab to fill for one forward pass.

        Every plane ``slab[f]`` is a contiguous ``(batch, d)`` block.  The
        contents are uninitialised; the caller writes all ``m`` planes.
        """
        if batch > self._slab.shape[1]:
            self._slab = np.empty(
                (self.num_features, _grown(batch), self.dim), dtype=self.dtype
            )
        return self._slab[:, :batch]

    def forward(self, slab: np.ndarray) -> np.ndarray:
        """Interactions of a filled slab: ``(batch, output_dim)``.

        Columns ``[:d]`` pass the dense vector through; the rest are the
        pair products in ``(0,1), (0,2), ..., (m-2,m-1)`` order.  The
        result is a fresh array (it never aliases scratch).
        """
        slab = np.asarray(slab, dtype=self.dtype)
        m, d = self.num_features, self.dim
        if slab.ndim != 3 or slab.shape[0] != m or slab.shape[2] != d:
            raise ValueError(
                f"expected a ({m}, batch, {d}) slab, got {slab.shape}"
            )
        batch = slab.shape[1]
        out = np.empty((batch, self.output_dim), dtype=self.dtype)
        out[:, :d] = slab[0]
        if m <= _DIRECT_MAX_FEATURES:
            lo = d
            for i in range(m - 1):
                hi = lo + m - 1 - i
                np.einsum(
                    "bd,jbd->bj", slab[i], slab[i + 1 :], out=out[:, lo:hi]
                )
                lo = hi
            return out
        if batch > self._gram.shape[0]:
            self._gram = np.empty((_grown(batch), m, m), dtype=self.dtype)
        gram = self._gram[:batch]
        by_sample = slab.transpose(1, 0, 2)  # (batch, m, d) view, no copy
        np.matmul(by_sample, by_sample.transpose(0, 2, 1), out=gram)
        # Gather the C(m,2) distinct pairs straight into the output;
        # ``np.take`` with ``out=`` skips the intermediate pair array.
        np.take(
            gram.reshape(batch, m * m), self._flat_upper, axis=1, out=out[:, d:]
        )
        return out

    def backward(self, slab: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
        """Gradient w.r.t. the slab: a fresh ``(m, batch, d)`` array.

        Args:
            slab: the slab :meth:`forward` consumed.
            grad_out: ``(batch, output_dim)`` upstream gradient.
        """
        slab = np.asarray(slab, dtype=self.dtype)
        m, batch, d = slab.shape
        grad_out = np.asarray(grad_out, dtype=self.dtype)
        grad_pairs = grad_out[:, d:]  # (batch, C(m,2))
        # d(x_i . x_j)/dx_i = x_j and vice versa: scatter pair grads into a
        # symmetric (m, m) matrix per sample, then one batched matmul.  The
        # scratch is zero-initialised and only the two strict triangles of
        # the first ``batch`` samples are ever written — fully, every call —
        # so the diagonal stays zero and no earlier batch can leak.
        if batch > self._gram_grad.shape[0]:
            self._gram_grad = np.zeros((_grown(batch), m, m), dtype=self.dtype)
        gram_grad = self._gram_grad[:batch]
        flat_grad = gram_grad.reshape(batch, m * m)
        flat_grad[:, self._flat_upper] = grad_pairs
        flat_grad[:, self._flat_lower] = grad_pairs
        grad = np.empty((m, batch, d), dtype=self.dtype)
        np.matmul(
            gram_grad, slab.transpose(1, 0, 2), out=grad.transpose(1, 0, 2)
        )
        grad[0] += grad_out[:, :d]
        return grad

"""The stacked ``(batch, m, d)`` interaction the slab layer replaced."""

import numpy as np


class StackedDotInteraction:
    """Per-call ``np.stack`` + batched gram matmul + triangle gather."""

    def __init__(self, num_features: int, dim: int, dtype=np.float64) -> None:
        self.num_features = num_features
        self.dim = dim
        self.dtype = np.dtype(dtype)
        li, lj = np.triu_indices(num_features, k=1)
        self._flat_upper = li * num_features + lj
        self._flat_lower = lj * num_features + li

    @property
    def output_dim(self) -> int:
        m = self.num_features
        return self.dim + m * (m - 1) // 2

    def forward(self, dense, embeddings):
        """``(output, stacked)`` from a dense block and a list of fields."""
        feats = [np.asarray(dense, dtype=self.dtype)]
        feats.extend(np.asarray(e, dtype=self.dtype) for e in embeddings)
        stacked = np.stack(feats, axis=1)  # (batch, m, d)
        batch, m = stacked.shape[0], self.num_features
        gram = np.matmul(stacked, stacked.transpose(0, 2, 1))
        out = np.empty((batch, self.output_dim), dtype=self.dtype)
        out[:, : self.dim] = stacked[:, 0, :]
        out[:, self.dim :] = gram.reshape(batch, m * m)[:, self._flat_upper]
        return out, stacked

    def backward(self, stacked, grad_out):
        """``(grad_dense, [grad per field])`` matching forward's inputs."""
        batch, m, _ = stacked.shape
        grad_out = np.asarray(grad_out, dtype=self.dtype)
        grad_pairs = grad_out[:, self.dim :]
        gram_grad = np.zeros((batch, m, m), dtype=self.dtype)
        flat_grad = gram_grad.reshape(batch, m * m)
        flat_grad[:, self._flat_upper] = grad_pairs
        flat_grad[:, self._flat_lower] = grad_pairs
        grad_stacked = gram_grad @ stacked
        grad_stacked[:, 0, :] += grad_out[:, : self.dim]
        return grad_stacked[:, 0, :], [grad_stacked[:, f, :] for f in range(1, m)]

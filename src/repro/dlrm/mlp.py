"""Dense multi-layer perceptrons used for DLRM's bottom and top networks.

Exact forward/backward passes in NumPy with ReLU hidden layers and an
optional sigmoid-free final layer (the loss applies the sigmoid).  Both
passes are *fused* over the whole batch:

* :meth:`MLP.forward` writes every layer's activations into one
  preallocated :class:`ActivationCache` buffer (matmuls land via
  ``out=`` into contiguous views — no per-layer list churn, no
  intermediate allocations beyond the single cache);
* :meth:`MLP.backward` writes every parameter gradient into one flat
  buffer whose per-layer views form the returned :class:`DenseGrads`,
  so a whole SGD step is one fused ``params -= lr * flat`` axpy.

Parameters live in a single flat buffer too; ``weights``/``biases`` are
reshaped views over it, so existing per-layer access (tests, Adagrad
state, checkpoints) sees ordinary mutable arrays while the fused paths
touch one allocation.  Parameters, activations and gradients share one
dtype, float32 by default (the model plane's row lane; the tests build
float64 oracles), and initialisation respects it.
"""

from __future__ import annotations

import numpy as np

from ..core.dtypes import SERVE

__all__ = ["ActivationCache", "DenseGrads", "MLP", "clip_by_global_norm"]


def _param_views(
    flat: np.ndarray,
    weight_shapes: list[tuple[int, int]],
    bias_shapes: list[tuple[int]],
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Carve ``flat`` into per-layer weight/bias views (weights first)."""
    weights: list[np.ndarray] = []
    biases: list[np.ndarray] = []
    offset = 0
    for shape in weight_shapes:
        n = shape[0] * shape[1]
        weights.append(flat[offset : offset + n].reshape(shape))
        offset += n
    for shape in bias_shapes:
        n = shape[0]
        biases.append(flat[offset : offset + n])
        offset += n
    return weights, biases


class ActivationCache:
    """Whole-forward activation storage in one preallocated buffer.

    ``cache[i]`` is the contiguous ``(batch, dims[i])`` view holding
    layer ``i``'s input (``cache[0]`` is the network input, ``cache[-1]``
    the network output) — the same indexing contract as the seed-era
    per-layer list, without the per-layer allocations.
    """

    __slots__ = ("_buf", "_views")

    def __init__(self, batch: int, dims: list[int], dtype) -> None:
        self._buf = np.empty(batch * sum(dims), dtype=dtype)
        self._views: list[np.ndarray] = []
        offset = 0
        for d in dims:
            self._views.append(
                self._buf[offset : offset + batch * d].reshape(batch, d)
            )
            offset += batch * d

    def __len__(self) -> int:
        return len(self._views)

    def __getitem__(self, i: int) -> np.ndarray:
        return self._views[i]

    @property
    def nbytes(self) -> int:
        """Cache footprint: the one buffer backing every layer."""
        return int(self._buf.nbytes)


class DenseGrads:
    """Gradients for one MLP: per-layer weight and bias arrays.

    When produced by :meth:`MLP.backward` the per-layer arrays are views
    over one flat buffer (:attr:`flat`), so norms, scaling and the SGD
    update are single vectorized passes instead of per-layer loops.
    Constructing one from plain lists (external code, tests) still
    works; :attr:`flat` then concatenates on demand.
    """

    __slots__ = ("weights", "biases", "_flat")

    def __init__(
        self,
        weights: list[np.ndarray],
        biases: list[np.ndarray],
        flat: np.ndarray | None = None,
    ) -> None:
        self.weights = weights
        self.biases = biases
        self._flat = flat

    @property
    def flat(self) -> np.ndarray:
        """All gradient elements as one 1-D array (weights then biases)."""
        if self._flat is not None:
            return self._flat
        parts = [w.ravel() for w in self.weights]
        parts += [b.ravel() for b in self.biases]
        if not parts:
            return np.zeros(0, dtype=SERVE.row_dtype)
        return np.concatenate(parts)

    def scaled(self, factor: float) -> "DenseGrads":
        flat = self.flat * factor
        weights, biases = _param_views(
            flat,
            [w.shape for w in self.weights],
            [b.shape for b in self.biases],
        )
        return DenseGrads(weights, biases, flat)

    def global_norm(self) -> float:
        """L2 norm over every element — one flat dot, no per-layer sum."""
        flat = self.flat
        return float(np.sqrt(flat @ flat))


def clip_by_global_norm(
    grads: DenseGrads, max_norm: float
) -> tuple[DenseGrads, float]:
    """Scale ``grads`` so its global L2 norm is at most ``max_norm``.

    Returns ``(clipped, pre_clip_norm)``; when the norm is already
    within budget the input object passes through unscaled.
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    norm = grads.global_norm()
    if norm <= max_norm:
        return grads, norm
    return grads.scaled(max_norm / norm), norm


class MLP:
    """Fully connected network ``dims[0] -> dims[1] -> ... -> dims[-1]``.

    Hidden activations are ReLU; the output layer is linear unless
    ``final_relu`` is set (DLRM's bottom MLP conventionally ends in ReLU so
    dense features live in the same non-negative space as embeddings).

    Parameters
    ----------
    dims : list[int]
        Layer widths, input first.
    rng : numpy.random.Generator, optional
        Weight-init stream; a fixed default seed when omitted.
    final_relu : bool, optional
        Apply ReLU after the last layer too.
    dtype : numpy dtype, optional
        Parameter/activation lane; float32 (the default) or float64 for
        a test oracle.  Initialisation respects it.
    """

    def __init__(
        self,
        dims: list[int],
        rng: np.random.Generator | None = None,
        final_relu: bool = False,
        dtype=SERVE.row_dtype,
    ) -> None:
        if len(dims) < 2:
            raise ValueError("MLP needs at least input and output dims")
        if rng is None:
            rng = np.random.default_rng(0)
        self.dims = list(dims)
        self.final_relu = final_relu
        self.dtype = np.dtype(dtype)
        w_shapes = [(fi, fo) for fi, fo in zip(dims[:-1], dims[1:])]
        b_shapes = [(fo,) for fo in dims[1:]]
        total = sum(fi * fo for fi, fo in w_shapes) + sum(dims[1:])
        self._params = np.empty(total, dtype=self.dtype)
        self.weights, self.biases = _param_views(
            self._params, w_shapes, b_shapes
        )
        for w, (fan_in, _) in zip(self.weights, w_shapes):
            # He initialisation for the ReLU stack; the view assignment
            # rounds the float64 draw onto the configured lane.
            std = np.sqrt(2.0 / fan_in)
            w[...] = rng.normal(0.0, std, size=w.shape)
        for b in self.biases:
            b[...] = 0.0

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    @property
    def num_params(self) -> int:
        return int(self._params.size)

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, ActivationCache]:
        """Run the network; returns output and the activation cache.

        The cache holds the *input* of every layer (post-activation of
        the previous one) followed by the final layer's output — one
        preallocated buffer for the whole pass; every matmul lands in
        its slice via ``out=``.
        """
        x = np.asarray(x, dtype=self.dtype)
        if x.ndim != 2 or x.shape[1] != self.dims[0]:
            raise ValueError(
                f"expected input of shape (batch, {self.dims[0]}), "
                f"got {x.shape}"
            )
        cache = ActivationCache(x.shape[0], self.dims, self.dtype)
        cache[0][...] = x
        h = cache[0]
        last = self.num_layers - 1
        for layer, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = cache[layer + 1]
            np.matmul(h, w, out=z)
            z += b
            if layer != last or self.final_relu:
                np.maximum(z, 0.0, out=z)
            h = z
        return h, cache

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)[0]

    def backward(
        self,
        cache: ActivationCache,
        grad_out: np.ndarray,
        param_grads: bool = True,
    ) -> tuple[np.ndarray, DenseGrads | None]:
        """Backprop ``grad_out`` through the cached forward pass.

        Returns the gradient w.r.t. the network input and parameter
        grads.  All parameter gradients are written into one flat buffer
        (per-layer views via ``out=``), so the optimizer's update is a
        single axpy over the buffer.  With ``param_grads=False`` (a frozen
        network that only passes gradient through) the same body skips
        the weight/bias products and returns ``None`` in their place; the
        input gradient is bit-identical either way.
        """
        grads = None
        if param_grads:
            flat = np.empty(self._params.size, dtype=self.dtype)
            grad_w, grad_b = _param_views(
                flat,
                [w.shape for w in self.weights],
                [b.shape for b in self.biases],
            )
            grads = DenseGrads(grad_w, grad_b, flat)
        # Private copy: the ReLU mask is applied in place below.
        g = np.array(grad_out, dtype=self.dtype)
        last = self.num_layers - 1
        for layer in range(last, -1, -1):
            h_out = cache[layer + 1]
            h_in = cache[layer]
            if layer != last or self.final_relu:
                # ReLU derivative via the cached post-activation.
                np.multiply(g, h_out > 0.0, out=g)
            if grads is not None:
                np.matmul(h_in.T, g, out=grads.weights[layer])
                g.sum(axis=0, out=grads.biases[layer])
            g = g @ self.weights[layer].T
        return g, grads

    def apply_grads(self, grads: DenseGrads, lr: float) -> None:
        """In-place SGD step — one fused axpy when the grads are
        flat-backed (the :meth:`backward` product), per-layer otherwise."""
        flat = grads._flat
        if (
            flat is not None
            and flat.size == self._params.size
            and flat.dtype == self.dtype
        ):
            self._params -= lr * flat
            return
        for w, gw in zip(self.weights, grads.weights):
            w -= lr * gw
        for b, gb in zip(self.biases, grads.biases):
            b -= lr * gb

    def copy(self) -> "MLP":
        dup = MLP.__new__(MLP)
        dup.dims = list(self.dims)
        dup.final_relu = self.final_relu
        dup.dtype = self.dtype
        dup._params = self._params.copy()
        dup.weights, dup.biases = _param_views(
            dup._params,
            [w.shape for w in self.weights],
            [b.shape for b in self.biases],
        )
        return dup

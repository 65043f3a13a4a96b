"""Embedding tables for DLRM sparse features.

An :class:`EmbeddingTable` maps categorical IDs to dense vectors and supports
the row-wise sparse updates that dominate DLRM training traffic (Section II-A
of the paper).  Multi-hot inputs are pooled (mean or sum) into a single vector
per sample, mirroring TorchRec's ``EmbeddingBagCollection`` semantics.

Gradients are returned as :class:`SparseRowGrad` objects — (indices, rows)
pairs — because production DLRMs only touch the rows present in a mini-batch.
That sparsity is exactly what makes delta-style synchronization (and
LiveUpdate's low-rank adapters) possible, so the substrate preserves it
instead of materialising dense ``|V| x d`` gradient tensors.

The hot paths are whole-array passes over :mod:`repro.core.kernels`:
pooled forward/backward run through offset-based segment reductions
(:func:`~repro.core.kernels.pool_rows` /
:func:`~repro.core.kernels.group_rows_sum`) and touched-row delta
accounting is an epoch-stamped
:class:`~repro.core.kernels.TouchedRows` lane — no per-bag or per-id
Python loops survive on the train/serve path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.dtypes import SERVE, as_float_rows
from ..core.kernels import TouchedRows, group_rows_sum, pool_rows
from ..obs.metrics import registry as _obs_registry

_REG = _obs_registry()
_IDS_POOLED = _REG.counter(
    "dlrm.embedding.ids_pooled", help="ids consumed by pooled lookups"
)
_LOOKUPS = _REG.counter(
    "dlrm.embedding.lookups", help="pooled lookup calls (batches)"
)

__all__ = [
    "SparseRowGrad",
    "EmbeddingTable",
    "EmbeddingBagCollection",
]


@dataclass
class SparseRowGrad:
    """Row-sparse gradient of one embedding table.

    Attributes:
        indices: 1-D int64 array of *unique* row ids touched by the batch.
        rows: ``(len(indices), d)`` float array; ``rows[i]`` is the gradient
            of table row ``indices[i]`` summed over the batch.
    """

    indices: np.ndarray
    rows: np.ndarray

    def __post_init__(self) -> None:
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.rows = as_float_rows(self.rows, name="grad rows")
        if self.indices.ndim != 1:
            raise ValueError("indices must be 1-D")
        if self.rows.ndim != 2 or self.rows.shape[0] != self.indices.shape[0]:
            raise ValueError("rows must be (len(indices), d)")

    @property
    def nnz_rows(self) -> int:
        """Number of distinct rows carrying gradient."""
        return int(self.indices.shape[0])

    def to_dense(self, num_rows: int) -> np.ndarray:
        """Materialise the dense ``(num_rows, d)`` gradient (tests/analysis)."""
        dense = np.zeros((num_rows, self.rows.shape[1]), dtype=self.rows.dtype)
        dense[self.indices] = self.rows
        return dense

    def frobenius_norm(self) -> float:
        """Frobenius norm of the (implicitly dense) gradient."""
        return float(np.linalg.norm(self.rows))


class EmbeddingTable:
    """One embedding table ``W in R^{|V| x d}`` for a categorical field.

    Args:
        num_rows: vocabulary size ``|V|``.
        dim: embedding dimension ``d``.
        rng: NumPy generator used for initialisation.
        init_scale: stddev of the uniform init, following DLRM's
            ``U(-1/sqrt(|V|), 1/sqrt(|V|))`` convention when ``None``.
        name: optional label used in diagnostics.
        dtype: row lane of the table; float32 (the default) or float64
            for a test oracle.  Initialisation respects it.
    """

    def __init__(
        self,
        num_rows: int,
        dim: int,
        rng: np.random.Generator | None = None,
        init_scale: float | None = None,
        name: str = "",
        dtype=SERVE.row_dtype,
    ) -> None:
        if num_rows <= 0 or dim <= 0:
            raise ValueError("num_rows and dim must be positive")
        if rng is None:
            rng = np.random.default_rng(0)
        scale = init_scale if init_scale is not None else 1.0 / np.sqrt(num_rows)
        self.weight = rng.uniform(-scale, scale, size=(num_rows, dim)).astype(
            np.dtype(dtype), copy=False
        )
        self.name = name or f"emt_{num_rows}x{dim}"
        # Row-level bookkeeping used by delta-update strategies and by the
        # Fig. 3a experiment (fraction of rows touched per window).
        self._touched = TouchedRows(num_rows)

    # ------------------------------------------------------------------ shape
    @property
    def num_rows(self) -> int:
        return int(self.weight.shape[0])

    @property
    def dim(self) -> int:
        return int(self.weight.shape[1])

    @property
    def dtype(self) -> np.dtype:
        """Row lane of the table."""
        return self.weight.dtype

    @property
    def nbytes(self) -> int:
        """Storage footprint of the table in bytes."""
        return int(self.weight.nbytes)

    # ---------------------------------------------------------------- forward
    def lookup(self, ids: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Single-hot lookup: returns ``(batch, d)`` rows for ``ids``.

        With ``out`` (a ``(batch, d)`` block on the table's lane, e.g. one
        plane of the interaction slab) the rows are gathered straight into
        it and no temporary is made.
        """
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= self.num_rows):
            raise IndexError(f"embedding id out of range for table {self.name}")
        # The range check above is the bounds check; ``mode="clip"`` only
        # stops ``np.take`` from buffering ``out`` as ``mode="raise"`` does.
        return np.take(self.weight, ids, axis=0, out=out, mode="clip")

    def lookup_pooled(
        self, ids: np.ndarray, offsets: np.ndarray, mode: str = "mean"
    ) -> np.ndarray:
        """Multi-hot lookup with pooling (EmbeddingBag semantics).

        Args:
            ids: flat 1-D array of ids for the whole batch.
            offsets: ``(batch + 1,)`` array; sample ``b`` owns
                ``ids[offsets[b]:offsets[b + 1]]``.  Empty bags pool to zero.
            mode: ``"mean"`` or ``"sum"``.
        """
        ids = np.asarray(ids, dtype=np.int64)
        offsets = np.asarray(offsets, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= self.num_rows):
            raise IndexError(f"embedding id out of range for table {self.name}")
        if _REG.enabled:
            _LOOKUPS.inc()
            _IDS_POOLED.add(ids.size)
        return pool_rows(self.weight, ids, offsets, mode=mode)

    # --------------------------------------------------------------- backward
    def grad_from_output(
        self, ids: np.ndarray, grad_out: np.ndarray
    ) -> SparseRowGrad:
        """Accumulate per-sample output gradients into unique row gradients."""
        ids = np.asarray(ids, dtype=np.int64)
        grad_out = np.asarray(grad_out, dtype=self.weight.dtype)
        uniq, rows = group_rows_sum(ids, grad_out, num_rows=self.num_rows)
        return SparseRowGrad(uniq, rows)

    def grad_from_pooled(
        self,
        ids: np.ndarray,
        offsets: np.ndarray,
        grad_out: np.ndarray,
        mode: str = "mean",
    ) -> SparseRowGrad:
        """Backward of :meth:`lookup_pooled`.

        Each id in bag ``b`` receives ``grad_out[b]`` (divided by bag size for
        mean pooling), then duplicates are accumulated — one spread
        (``np.repeat``) plus one duplicate-sparse scatter-add, no per-bag
        Python loop.
        """
        ids = np.asarray(ids, dtype=np.int64)
        offsets = np.asarray(offsets, dtype=np.int64)
        grad_out = np.asarray(grad_out, dtype=self.weight.dtype)
        sizes = np.diff(offsets)
        if int(sizes.sum()) != ids.shape[0]:
            raise ValueError("offsets do not cover the id stream")
        if mode == "mean":
            grad_out = grad_out / np.maximum(sizes, 1)[:, None]
        per_id = np.repeat(grad_out, sizes, axis=0)
        uniq, rows = group_rows_sum(ids, per_id, num_rows=self.num_rows)
        return SparseRowGrad(uniq, rows)

    # ----------------------------------------------------------------- update
    def apply_sparse_update(self, grad: SparseRowGrad, lr: float) -> None:
        """Plain SGD row update; marks rows as touched for delta tracking."""
        self.weight[grad.indices] -= lr * grad.rows
        self.mark_touched(grad.indices)

    def assign_rows(self, indices: np.ndarray, rows: np.ndarray) -> None:
        """Overwrite specific rows (used when applying pulled deltas)."""
        indices = np.asarray(indices, dtype=np.int64)
        self.weight[indices] = rows
        self.mark_touched(indices)

    # ------------------------------------------------------- delta accounting
    def mark_touched(self, indices: np.ndarray) -> None:
        """Stamp rows into the delta log (optimizers call this per step).

        Tracks in-place vocabulary growth: when the weight matrix has
        grown past the stamp lane, the lane grows with it (existing
        stamps survive), mirroring how the optimizer grows its row state.
        """
        if self._touched.num_rows < self.num_rows:
            self._touched.resize(self.num_rows)
        self._touched.stamp(np.asarray(indices, dtype=np.int64))

    def touched_rows(self) -> np.ndarray:
        """Sorted ids of rows modified since the last :meth:`reset_touched`."""
        return self._touched.ids()

    def drain_touched(self) -> np.ndarray:
        """Touched ids + reset in one pass (delta-publish hot path)."""
        return self._touched.drain()

    def touched_count(self) -> int:
        """Number of rows modified since the last reset."""
        return self._touched.count()

    def touched_fraction(self) -> float:
        """Fraction of the table modified since the last reset (Fig. 3a)."""
        return self._touched.fraction()

    def reset_touched(self) -> None:
        self._touched.clear()

    def copy(self) -> "EmbeddingTable":
        """Deep copy (weights only; touch log starts clean)."""
        dup = EmbeddingTable.__new__(EmbeddingTable)
        dup.weight = self.weight.copy()
        dup.name = self.name
        dup._touched = TouchedRows(self.num_rows)
        return dup


@dataclass
class EmbeddingBagCollection:
    """Ordered collection of embedding tables, one per sparse feature field."""

    tables: list[EmbeddingTable] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.tables)

    def __iter__(self):
        return iter(self.tables)

    def __getitem__(self, i: int) -> EmbeddingTable:
        return self.tables[i]

    @property
    def total_rows(self) -> int:
        return sum(t.num_rows for t in self.tables)

    @property
    def nbytes(self) -> int:
        return sum(t.nbytes for t in self.tables)

    def lookup_all(self, sparse_ids: np.ndarray) -> list[np.ndarray]:
        """Single-hot lookup across all fields.

        Args:
            sparse_ids: ``(batch, num_fields)`` int array.

        Returns:
            list of ``(batch, d)`` arrays, one per field.
        """
        sparse_ids = np.asarray(sparse_ids, dtype=np.int64)
        if sparse_ids.shape[1] != len(self.tables):
            raise ValueError(
                f"expected {len(self.tables)} sparse fields, "
                f"got {sparse_ids.shape[1]}"
            )
        return [t.lookup(sparse_ids[:, f]) for f, t in enumerate(self.tables)]

    def touched_fraction(self) -> float:
        """Row-weighted average touched fraction across tables."""
        total = self.total_rows
        touched = sum(t.touched_count() for t in self.tables)
        return touched / total if total else 0.0

    def reset_touched(self) -> None:
        for t in self.tables:
            t.reset_touched()

    def copy(self) -> "EmbeddingBagCollection":
        return EmbeddingBagCollection([t.copy() for t in self.tables])

"""Low-rank adapter tables for embedding updates.

LiveUpdate represents the update to an embedding table as ``Delta W = A B``
with ``A in R^{|V| x k}`` and ``B in R^{k x d}``, ``k << d`` (Eq. 3).  To
keep memory at the paper's <2% target, ``A`` is *not* allocated for every
vocabulary row: an :class:`LoRAAdapter` owns a compact slot array of
``capacity`` rows plus an id -> slot map, so only active ids (survivors of
usage-based pruning) consume memory.

The id -> slot map is an :class:`~repro.core.kernels.IdSlotTable`, so every
algebra entry point (:meth:`~LoRAAdapter.delta_rows`,
:meth:`~LoRAAdapter.apply_to`, :meth:`~LoRAAdapter.accumulate_grad`) is one
batched translate + gather/scatter + matmul with no per-id Python loop.
The factors live on the model plane's row lane (float32,
:data:`~repro.core.dtypes.ROW_DTYPE`, by default; float64 for a test
oracle), and the serving overlay adjusts the looked-up rows *in place*,
hot rows only.

Rank can be resized at runtime (dynamic rank adaptation, Section IV-C):
growth zero-pads the new directions; shrink projects ``A B`` onto its top-k
SVD subspace so the represented update is preserved as well as a rank-k
object can (Eckart-Young optimality).
"""

from __future__ import annotations

import numpy as np

from .dtypes import ROW_DTYPE, as_rows, check_row_dtype
from .kernels import IdSlotTable, is_sorted_unique, run_starts

__all__ = ["LoRAAdapter", "LoRACollection"]


class LoRAAdapter:
    """One table's low-rank update factors.

    Args:
        dim: embedding dimension ``d`` of the base table.
        rank: initial LoRA rank ``k``.
        capacity: number of ``A`` rows allocated (active-id budget).
        rng: initialiser for ``B`` (``A`` rows start at zero so the adapter
            is an exact no-op until trained, as in standard LoRA).
        universe: optional id-universe size (the base table's row count).
            When given, id -> slot translation uses the flat
            direct-address lane of :class:`IdSlotTable` — one gather, no
            search — and ids outside ``[0, universe)`` are never
            activated.
        dtype: row dtype of ``A`` and ``B`` (and of everything the
            adapter hands out): float32 or float64.  Rows entering from
            the other lane go through the checked
            :func:`~repro.core.dtypes.as_rows`.
    """

    def __init__(
        self,
        dim: int,
        rank: int,
        capacity: int,
        rng: np.random.Generator | None = None,
        universe: int | None = None,
        dtype=ROW_DTYPE,
    ) -> None:
        dtype = check_row_dtype(dtype, name="LoRAAdapter dtype")
        if dim <= 0 or rank <= 0 or capacity <= 0:
            raise ValueError("dim, rank and capacity must be positive")
        if rank > dim:
            raise ValueError("rank cannot exceed the embedding dimension")
        rng = rng or np.random.default_rng(0)
        self.dim = dim
        self.rank = rank
        self.capacity = capacity
        self.universe = universe
        self.dtype = dtype
        self.a = np.zeros((capacity, rank), dtype=dtype)
        # B is drawn in float64 whatever the lane, so a float64 oracle
        # starts from the same initialisation.
        self.b = as_rows(
            rng.normal(0.0, 1.0 / np.sqrt(rank), size=(rank, dim)),
            dtype,
            name="B",
        )
        self._slots = IdSlotTable(capacity, universe=universe)
        self.evictions = 0

    # ------------------------------------------------------------------ state
    @property
    def num_active(self) -> int:
        return self._slots.size

    @property
    def active_ids(self) -> np.ndarray:
        """Active ids in ascending order."""
        return self._slots.keys

    @property
    def nbytes(self) -> int:
        return int(self.a.nbytes + self.b.nbytes)

    def activate_batch(self, ids: np.ndarray) -> np.ndarray:
        """Give every id a slot (first come first served); ``-1`` if full.

        Newly granted slots have their ``A`` rows zeroed so activation
        alone never changes the represented update.
        """
        slots, new_slots = self._slots.insert(ids)
        if new_slots.size:
            self.a[new_slots] = 0.0
        return slots

    def deactivate_batch(self, ids: np.ndarray) -> int:
        """Release the slots of every active id in ``ids``; returns count."""
        released = self._slots.remove(ids)
        if released.size:
            self.a[released] = 0.0
            self.evictions += released.size
        return int(released.size)

    # --------------------------------------------------------------- algebra
    def delta_rows(self, ids: np.ndarray) -> np.ndarray:
        """``Delta W`` rows for ``ids``; inactive ids contribute zeros."""
        ids = np.asarray(ids, dtype=np.int64)
        slots = self._slots.lookup(ids)
        hit = slots >= 0
        if hit.all():
            # Every id active (e.g. a sync over active ids): one gather +
            # matmul, no zero-fill/scatter pass.
            return self.a.take(slots, axis=0) @ self.b
        out = np.zeros((ids.shape[0], self.dim), dtype=self.a.dtype)
        if hit.any():
            out[hit] = self.a.take(slots[hit], axis=0) @ self.b
        return out

    def apply_to(
        self,
        ids: np.ndarray,
        base_rows: np.ndarray,
        hot: np.ndarray | None = None,
    ) -> np.ndarray:
        """``W_base[i] + A[i] B`` for the inference path, **in place**.

        Adds the delta to the rows of active ids (of those, only where the
        boolean mask ``hot`` is set, when given): one gather, one matmul
        and one scatter over the adapted rows, nothing over the rest.
        ``base_rows`` on the adapter's lane is adjusted in place and
        returned; anything else first enters the lane through the checked
        :func:`~repro.core.dtypes.as_rows`, and that adjusted copy is
        returned.
        """
        rows = as_rows(base_rows, self.dtype, name="base rows")
        slots = self._slots.lookup(ids)
        adapted = slots >= 0
        if hot is not None:
            adapted &= hot
        picked = np.flatnonzero(adapted)
        if picked.size:
            rows[picked] += self.a.take(slots[picked], axis=0) @ self.b
        return rows

    def accumulate_grad(
        self, ids: np.ndarray, grad_rows: np.ndarray, lr: float
    ) -> int:
        """SGD step on ``A`` rows and ``B`` from embedding-space gradients.

        ``dL/dA[i] = g_i B^T`` and ``dL/dB = sum_i A[i]^T g_i`` where ``g_i``
        is the gradient of the (adapted) embedding row.  Ids without a free
        slot are skipped (they keep flowing through the base table only).

        The batch is one pair of matmuls.  ``B`` is read-only within a
        step, so rows with distinct ids commute — strictly increasing
        ``ids``, what :func:`~repro.core.kernels.group_rows_sum` hands the
        trainer, need nothing else.  Any other input keeps the semantics
        of applying its rows one after another: :func:`_sum_repeats` sums
        each id's rows first and returns, as a cross term, the one thing
        summing loses (``dL/dB`` seeing ``A[i]`` move between two rows of
        the same id).

        Returns the number of rows applied (repeats count).
        """
        ids = np.asarray(ids, dtype=np.int64)
        grad_rows = as_rows(grad_rows, self.dtype, name="grad rows")
        slots = self.activate_batch(ids)
        valid = slots >= 0
        updated = int(valid.sum())
        if not updated:
            return 0
        grads = grad_rows
        if updated != slots.size:  # some ids found no free slot
            slots, grads = slots[valid], grad_rows[valid]
        cross = None
        if not is_sorted_unique(ids):
            slots, grads, cross = _sum_repeats(slots, grads)
        grad_b = self.a.take(slots, axis=0).T @ grads
        if cross is not None:
            grad_b -= lr * (self.b @ cross)
        self.a[slots] -= lr * (grads @ self.b.T)
        self.b -= lr * grad_b
        return updated

    def scatter_rows(self, ids: np.ndarray, rows: np.ndarray) -> int:
        """Overwrite the ``A`` rows of ``ids`` (activating as needed).

        Ids that cannot get a slot are skipped; ``rows`` wider/narrower
        than the current rank are truncated / zero-padded.  Returns the
        number of rows written (the synchronizer's apply primitive).
        """
        ids = np.asarray(ids, dtype=np.int64)
        rows = as_rows(rows, self.dtype, name="A rows")
        slots = self.activate_batch(ids)
        hit = slots >= 0
        if not hit.any():
            return 0
        width = min(rows.shape[1], self.rank)
        payload = np.zeros((int(hit.sum()), self.rank), dtype=rows.dtype)
        payload[:, :width] = rows[hit][:, :width]
        self.a[slots[hit]] = payload
        return int(hit.sum())

    def gather_rows(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(present_ids, A rows)`` for the subset of ``ids`` that is active."""
        ids = np.asarray(ids, dtype=np.int64)
        slots = self._slots.lookup(ids)
        hit = slots >= 0
        return ids[hit], self.a[slots[hit]].copy()

    # ----------------------------------------------------------- reshaping
    def resize_rank(self, new_rank: int) -> None:
        """Change ``k`` preserving the represented update where possible."""
        if new_rank == self.rank:
            return
        if new_rank <= 0 or new_rank > self.dim:
            raise ValueError("invalid rank")
        if new_rank > self.rank:
            grow = new_rank - self.rank
            pad_a = np.zeros((self.capacity, grow), dtype=self.a.dtype)
            rng = np.random.default_rng(self.rank * 7919 + new_rank)
            pad_b = rng.normal(0.0, 1.0 / np.sqrt(new_rank), size=(grow, self.dim))
            self.a = np.concatenate([self.a, pad_a], axis=1)
            self.b = np.concatenate(
                [self.b, as_rows(pad_b, self.dtype, name="B")], axis=0
            )
        else:
            # Project the active update onto its best rank-k approximation.
            # The singular-value mass is split as sqrt(s) between the two
            # factors: leaving it all in A (a = u*s, b = vt) preserves the
            # product but unbalances subsequent gradient dynamics, which
            # measurably degrades further online training.
            active = np.sort(self._slots.slots)
            if active.size:
                delta = self.a[active] @ self.b
                u, s, vt = np.linalg.svd(delta, full_matrices=False)
                k = new_rank
                root_s = np.sqrt(s[:k])
                new_a_rows = u[:, :k] * root_s
                new_b = root_s[:, None] * vt[:k]
                # Guard against dead directions: a ~zero B row would stop
                # gradient flow (dA = B g) through that rank forever.  Give
                # such rows a small random direction; the matching A column
                # is ~zero too, so the represented update barely moves.
                rng = np.random.default_rng(self.rank * 7919 + k)
                floor = 0.1 / np.sqrt(k)
                # repro-lint: disable=hot-loop -- k <= 64 rank directions, once per rank shrink; the draws must stay sequential on one rng
                for j in range(new_b.shape[0]):
                    if np.linalg.norm(new_b[j]) < floor:
                        new_b[j] = rng.normal(0.0, 1.0 / np.sqrt(k), self.dim)
                self.a = np.zeros((self.capacity, k), dtype=self.a.dtype)
                self.a[active] = new_a_rows
                self.b = new_b
            else:
                # Nothing learned yet: keep the leading learned directions.
                self.a = np.zeros((self.capacity, new_rank), dtype=self.a.dtype)
                self.b = self.b[:new_rank].copy()
        self.rank = new_rank

    def resize_capacity(self, new_capacity: int) -> None:
        """Grow/shrink the slot budget (Eq. 4's table-length control).

        Shrinking evicts the surplus ids with the *smallest* adapter norms
        (they carry the least update information; ties break toward lower
        ids).
        """
        if new_capacity == self.capacity:
            return
        if new_capacity <= 0:
            raise ValueError("capacity must be positive")
        if new_capacity < self.num_active:
            ids = self._slots.keys
            norms = np.linalg.norm(self.a[self._slots.slots], axis=1)
            surplus = self.num_active - new_capacity
            evict = ids[np.argsort(norms, kind="stable")[:surplus]]
            self.deactivate_batch(evict)
        # Repack survivors densely: ascending ids take slots 0..n-1.
        keys = self._slots.keys
        old_slots = self._slots.slots
        new_a = np.zeros((new_capacity, self.rank), dtype=self.a.dtype)
        new_a[: keys.size] = self.a[old_slots]
        self.a = new_a
        self._slots.rebuild_sorted(keys, new_capacity)
        self.capacity = new_capacity

    def reset(self) -> None:
        """Zero the adapter (after merging into base / full re-anchor)."""
        self.a[...] = 0.0
        self._slots.clear()

    def merge_into(self, weight: np.ndarray) -> int:
        """Fold ``A B`` into a base weight matrix in place; then reset.

        Returns the number of rows merged.
        """
        keys = self._slots.keys
        slots = self._slots.slots
        in_range = (keys >= 0) & (keys < weight.shape[0])
        if in_range.any():
            # Active ids are unique, so plain fancy-index += is safe.
            weight[keys[in_range]] += self.a[slots[in_range]] @ self.b
        merged = int(in_range.sum())
        self.reset()
        return merged


def _sum_repeats(
    slots: np.ndarray, grads: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fold repeated slots of one SGD step: ``(slots, summed grads, cross)``.

    Applying a slot's rows ``g_1 .. g_n`` one after another moves its ``A``
    row by ``-lr (g_1 + .. + g_n) B^T``, as one step on the sum does, but
    ``dL/dB`` collects ``A_r^T g_r`` with the row already moved: ``A_r = A_0
    - lr (g_1 + .. + g_{r-1}) B^T``.  Over all slots that is ``A_0^T sum -
    lr * B @ cross``, ``cross = sum_r outer(g_1 + .. + g_{r-1}, g_r)`` —
    prefix sums inside each slot's run, no loop over occurrence rounds.
    """
    order = np.argsort(slots, kind="stable")
    slots = slots[order]
    grads = grads[order]
    starts = run_starts(slots)
    # Rows before each one *within its run*: the running total minus the
    # total at the run's start.
    before = np.cumsum(grads, axis=0) - grads
    before -= np.repeat(
        before[starts], np.diff(np.append(starts, slots.size)), axis=0
    )
    return slots[starts], np.add.reduceat(grads, starts, axis=0), before.T @ grads


class LoRACollection:
    """One adapter per sparse field of a DLRM."""

    def __init__(
        self,
        dims: list[int],
        rank: int,
        capacities: list[int],
        seed: int = 0,
        universes: list[int] | None = None,
        dtype=ROW_DTYPE,
    ) -> None:
        dtype = check_row_dtype(dtype, name="LoRACollection dtype")
        if len(dims) != len(capacities):
            raise ValueError("dims and capacities must align")
        if universes is not None and len(universes) != len(dims):
            raise ValueError("universes must align with dims")
        rng = np.random.default_rng(seed)
        self.adapters = [
            LoRAAdapter(
                dim,
                rank,
                cap,
                rng=rng,
                universe=None if universes is None else universes[f],
                dtype=dtype,
            )
            for f, (dim, cap) in enumerate(zip(dims, capacities))
        ]

    def __len__(self) -> int:
        return len(self.adapters)

    def __getitem__(self, f: int) -> LoRAAdapter:
        return self.adapters[f]

    def __iter__(self):
        return iter(self.adapters)

    @property
    def nbytes(self) -> int:
        return sum(ad.nbytes for ad in self.adapters)

    @property
    def num_active(self) -> int:
        return sum(ad.num_active for ad in self.adapters)

    def overlay(self, hot_filter=None):
        """Embedding overlay closure for :meth:`repro.dlrm.DLRM.forward`.

        The closure adjusts the rows it is given in place (see
        :meth:`LoRAAdapter.apply_to`) and returns them.

        Args:
            hot_filter: optional callable ``(field, ids) -> bool mask``; only
                hot ids get the LoRA adjustment (the paper's Hot Index
                Filter short-circuits cold ids straight to the base table).
        """

        def _overlay(field: int, ids: np.ndarray, base_rows: np.ndarray):
            hot = None if hot_filter is None else hot_filter(field, ids)
            return self.adapters[field].apply_to(ids, base_rows, hot=hot)

        return _overlay

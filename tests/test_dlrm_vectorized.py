"""Property tests: vectorized DLRM hot path == seed per-bag implementations.

The pooled forward, pooled backward, overlay forward and fused row-wise
Adagrad step were rewritten as whole-array segment reductions (PR 5).
These tests pin them to verbatim copies of the seed per-bag/per-id
reference implementations across random bag shapes, empty bags, duplicate
ids and both pooling modes, plus the TouchedRows delta-lane semantics and
the optimizer-state keying fixes.  The seed references compute in float64,
so the tables they pin are built on the float64 oracle lane; the float32
lane is pinned against that oracle in ``tests/test_dtype_lanes.py``.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.core.dtypes import ROW_DTYPE
from repro.core.kernels import TouchedRows, group_rows_sum, pool_rows
from repro.dlrm.embedding import EmbeddingTable, SparseRowGrad
from repro.dlrm.optim import RowwiseAdagrad

TOL = dict(rtol=1e-10, atol=1e-12)


# ------------------------------------------------- seed reference implementations
def ref_lookup_pooled(weight, ids, offsets, mode):
    """Seed EmbeddingTable.lookup_pooled: one Python iteration per bag."""
    batch = offsets.shape[0] - 1
    dim = weight.shape[1]
    out = np.zeros((batch, dim))
    rows = weight[ids] if ids.size else np.zeros((0, dim))
    for b in range(batch):
        lo, hi = offsets[b], offsets[b + 1]
        if hi <= lo:
            continue
        seg = rows[lo:hi]
        out[b] = seg.sum(axis=0)
        if mode == "mean":
            out[b] /= hi - lo
    return out


def ref_grad_from_pooled(dim, ids, offsets, grad_out, mode):
    """Seed EmbeddingTable.grad_from_pooled: per-bag spread + np.add.at."""
    per_id = np.zeros((ids.shape[0], dim))
    batch = offsets.shape[0] - 1
    for b in range(batch):
        lo, hi = offsets[b], offsets[b + 1]
        if hi <= lo:
            continue
        g = grad_out[b]
        if mode == "mean":
            g = g / (hi - lo)
        per_id[lo:hi] = g
    uniq, inverse = np.unique(ids, return_inverse=True)
    rows = np.zeros((uniq.shape[0], dim))
    np.add.at(rows, inverse, per_id)
    return uniq, rows


def ref_overlay_forward(table, ids, offsets, adapter, mode):
    """Seed pooled forward through a LoRA overlay: per-bag delta pooling."""
    base = ref_lookup_pooled(table.weight, ids, offsets, mode)
    deltas = adapter.delta_rows(ids)
    pooled_delta = np.zeros_like(base)
    for b in range(offsets.size - 1):
        lo, hi = offsets[b], offsets[b + 1]
        if hi <= lo:
            continue
        seg = deltas[lo:hi].sum(axis=0)
        if mode == "mean":
            seg = seg / (hi - lo)
        pooled_delta[b] = seg
    return base + pooled_delta


def ref_adagrad_step(weight, state, indices, rows, lr, eps):
    """Seed RowwiseAdagrad.step_sparse: separate probe/accumulate/scale."""
    g2 = (rows ** 2).mean(axis=1)
    state[indices] += g2
    scale = lr / np.sqrt(state[indices] + eps)
    weight[indices] -= scale[:, None] * rows


def random_bags(rng, num_rows, max_bags=40, max_bag=12, allow_empty=True):
    """Random ``(ids, offsets)`` bags with empty bags and duplicate ids."""
    n_bags = int(rng.integers(1, max_bags + 1))
    sizes = rng.integers(0 if allow_empty else 1, max_bag + 1, size=n_bags)
    ids = rng.integers(0, num_rows, size=int(sizes.sum()))
    if ids.size >= 2:  # force at least one duplicate
        ids[-1] = ids[0]
    offsets = np.zeros(n_bags + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return ids, offsets


# ---------------------------------------------------------------- pooled forward
class TestPooledForwardEquivalence:
    @pytest.mark.parametrize("mode", ["mean", "sum"])
    @pytest.mark.parametrize("seed", range(8))
    def test_random_bag_shapes(self, mode, seed):
        rng = np.random.default_rng(seed)
        table = EmbeddingTable(37, 5, rng=rng, dtype=np.float64)
        ids, offsets = random_bags(rng, table.num_rows)
        got = table.lookup_pooled(ids, offsets, mode=mode)
        want = ref_lookup_pooled(table.weight, ids, offsets, mode)
        np.testing.assert_allclose(got, want, **TOL)

    def test_all_bags_empty(self):
        table = EmbeddingTable(10, 4)
        out = table.lookup_pooled(
            np.array([], dtype=np.int64), np.array([0, 0, 0, 0])
        )
        np.testing.assert_array_equal(out, np.zeros((3, 4)))

    @pytest.mark.parametrize(
        "dtype, tol",
        [(np.float64, TOL), (ROW_DTYPE, dict(rtol=1e-5))],
        ids=["train", "serve"],
    )
    def test_single_giant_bag(self, dtype, tol):
        """A float32 table pools like its float64 oracle."""
        rng = np.random.default_rng(3)
        table = EmbeddingTable(50, 6, rng=rng, dtype=dtype)
        ids = rng.integers(0, 50, size=500)
        offsets = np.array([0, 500])
        got = table.lookup_pooled(ids, offsets, mode="sum")
        assert got.dtype == dtype
        np.testing.assert_allclose(
            got, ref_lookup_pooled(table.weight, ids, offsets, "sum"), **tol
        )

    def test_out_of_range_rejected(self):
        table = EmbeddingTable(10, 4)
        with pytest.raises(IndexError):
            table.lookup_pooled(np.array([10]), np.array([0, 1]))
        with pytest.raises(IndexError):
            table.lookup_pooled(np.array([-1]), np.array([0, 1]))


# --------------------------------------------------------------- pooled backward
class TestPooledBackwardEquivalence:
    @pytest.mark.parametrize("mode", ["mean", "sum"])
    @pytest.mark.parametrize("seed", range(8))
    def test_random_bag_shapes(self, mode, seed):
        rng = np.random.default_rng(100 + seed)
        table = EmbeddingTable(29, 4, rng=rng, dtype=np.float64)
        ids, offsets = random_bags(rng, table.num_rows)
        grad_out = rng.normal(size=(offsets.size - 1, table.dim))
        got = table.grad_from_pooled(ids, offsets, grad_out, mode=mode)
        want_ids, want_rows = ref_grad_from_pooled(
            table.dim, ids, offsets, grad_out, mode
        )
        np.testing.assert_array_equal(got.indices, want_ids)
        np.testing.assert_allclose(got.rows, want_rows, **TOL)

    def test_heavy_duplicates(self):
        rng = np.random.default_rng(7)
        table = EmbeddingTable(5, 3, rng=rng, dtype=np.float64)
        ids = rng.integers(0, 5, size=200)  # every id massively duplicated
        offsets = np.arange(0, 201, 10, dtype=np.int64)
        grad_out = rng.normal(size=(20, 3))
        got = table.grad_from_pooled(ids, offsets, grad_out, mode="mean")
        want_ids, want_rows = ref_grad_from_pooled(
            3, ids, offsets, grad_out, "mean"
        )
        np.testing.assert_array_equal(got.indices, want_ids)
        np.testing.assert_allclose(got.rows, want_rows, **TOL)

    def test_grad_from_output_matches_add_at(self):
        rng = np.random.default_rng(11)
        table = EmbeddingTable(31, 4, rng=rng, dtype=np.float64)
        ids = rng.integers(0, 31, size=64)
        grad_out = rng.normal(size=(64, 4))
        got = table.grad_from_output(ids, grad_out)
        uniq, inverse = np.unique(ids, return_inverse=True)
        want = np.zeros((uniq.shape[0], 4))
        np.add.at(want, inverse, grad_out)
        np.testing.assert_array_equal(got.indices, uniq)
        np.testing.assert_allclose(got.rows, want, **TOL)

    def test_mismatched_offsets_rejected(self):
        table = EmbeddingTable(10, 4)
        with pytest.raises(ValueError):
            table.grad_from_pooled(
                np.array([1, 2, 3]), np.array([0, 2]), np.ones((1, 4))
            )


# --------------------------------------------------------------- overlay forward
class TestOverlayForwardEquivalence:
    @pytest.mark.parametrize("mode", ["mean", "sum"])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_seed_loop(self, mode, seed):
        from repro.core.lora import LoRAAdapter

        rng = np.random.default_rng(200 + seed)
        table = EmbeddingTable(23, 4, rng=rng, dtype=np.float64)
        adapter = LoRAAdapter(
            4, 2, capacity=8, rng=rng, universe=23, dtype=np.float64
        )
        adapter.activate_batch(np.array([1, 3, 5, 7, 11]))
        adapter.a[:] = rng.normal(size=adapter.a.shape)
        ids, offsets = random_bags(rng, table.num_rows)
        # pooling commutes with the additive adapter: pool(W) + pool(delta)
        positions = np.arange(ids.size, dtype=np.int64)
        got = table.lookup_pooled(ids, offsets, mode=mode) + pool_rows(
            adapter.delta_rows(ids), positions, offsets, mode
        )
        want = ref_overlay_forward(table, ids, offsets, adapter, mode)
        np.testing.assert_allclose(got, want, **TOL)


# ------------------------------------------------------------------ fused Adagrad
class TestFusedAdagradEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_seed_update_sequence(self, seed):
        rng = np.random.default_rng(300 + seed)
        table = EmbeddingTable(41, 4, rng=rng, dtype=np.float64)
        ref_weight = table.weight.copy()
        ref_state = np.zeros(table.num_rows)
        opt = RowwiseAdagrad(lr=0.3)
        for _ in range(5):
            uniq = np.unique(rng.integers(0, 41, size=12))
            rows = rng.normal(size=(uniq.size, 4))
            grad = SparseRowGrad(uniq, rows)
            opt.step_sparse(table, grad)
            ref_adagrad_step(ref_weight, ref_state, uniq, rows, 0.3, opt.eps)
        np.testing.assert_allclose(table.weight, ref_weight, **TOL)
        np.testing.assert_allclose(
            opt._row_state[table], ref_state, **TOL
        )

    def test_state_survives_table_growth(self):
        table = EmbeddingTable(10, 4)
        opt = RowwiseAdagrad(lr=1.0)
        opt.step_sparse(table, SparseRowGrad(np.array([2]), np.ones((1, 4))))
        acc_before = opt._row_state[table][2]
        assert acc_before > 0
        # grow the vocabulary in place (id-mapper expansion); the touched
        # lane must follow the weight matrix without manual resizing
        table.weight = np.vstack([table.weight, np.zeros((5, 4))])
        opt.step_sparse(table, SparseRowGrad(np.array([12]), np.ones((1, 4))))
        state = opt._row_state[table]
        assert state.shape[0] == 15
        assert state[2] == pytest.approx(acc_before)  # history kept, not zeroed
        assert 12 in table.touched_rows()

    def test_collected_table_drops_state(self):
        opt = RowwiseAdagrad(lr=1.0)
        table = EmbeddingTable(10, 4)
        opt.step_sparse(table, SparseRowGrad(np.array([1]), np.ones((1, 4))))
        assert len(opt._row_state) == 1
        ref = weakref.ref(table)
        del table
        gc.collect()
        assert ref() is None
        assert len(opt._row_state) == 0  # no id-aliasing hazard left behind

    def test_copy_starts_with_fresh_state(self):
        opt = RowwiseAdagrad(lr=1.0)
        table = EmbeddingTable(10, 4)
        opt.step_sparse(table, SparseRowGrad(np.array([1]), np.ones((1, 4))))
        dup = table.copy()
        w_before = dup.weight[1].copy()
        opt.step_sparse(dup, SparseRowGrad(np.array([1]), np.ones((1, 4))))
        # first step on the copy is full-size: no inherited accumulator
        assert np.abs(dup.weight[1] - w_before).mean() == pytest.approx(
            1.0, rel=0.01
        )


# -------------------------------------------------------------------- TouchedRows
class TestTouchedRows:
    def test_stamp_drain_roundtrip(self):
        t = TouchedRows(100)
        t.stamp(np.array([7, 3, 7, 99, 0]))
        np.testing.assert_array_equal(t.ids(), [0, 3, 7, 99])
        assert t.count() == 4
        assert t.fraction() == pytest.approx(4 / 100)
        drained = t.drain()
        np.testing.assert_array_equal(drained, [0, 3, 7, 99])
        assert t.count() == 0

    def test_epoch_wrap_is_clean(self):
        t = TouchedRows(8)
        for _ in range(600):  # far past the 8-bit epoch space
            t.stamp(np.array([1]))
            assert t.count() == 1
            t.clear()
            assert t.count() == 0

    def test_bitmap_export(self):
        t = TouchedRows(16)
        t.stamp(np.array([0, 3, 8]))
        bitmap = t.bitmap()
        assert bitmap.dtype == np.uint8
        assert bitmap[0] == 0b00001001
        assert bitmap[1] == 0b00000001

    def test_resize_grows_and_keeps_stamps(self):
        t = TouchedRows(4)
        t.stamp(np.array([2]))
        t.resize(10)
        np.testing.assert_array_equal(t.ids(), [2])
        t.stamp(np.array([9]))
        np.testing.assert_array_equal(t.ids(), [2, 9])
        with pytest.raises(ValueError):
            t.resize(3)

    def test_memory_overhead_within_budget(self):
        # the paper's <2% metadata budget at the repo's default dim=16
        table = EmbeddingTable(1000, 16)
        assert table._touched.nbytes / table.nbytes < 0.02

    def test_validates_num_rows(self):
        with pytest.raises(ValueError):
            TouchedRows(0)


# ------------------------------------------------------------------- kernel edges
class TestSegmentKernelEdges:
    def test_pool_rows_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            pool_rows(np.ones((2, 2)), np.array([0]), np.array([0, 1]), "max")

    def test_pool_rows_empty_values(self):
        out = pool_rows(
            np.zeros((0, 3)), np.empty(0, dtype=np.int64), np.array([0, 0, 0])
        )
        np.testing.assert_array_equal(out, np.zeros((2, 3)))

    def test_group_rows_sum_empty(self):
        uniq, rows = group_rows_sum(
            np.array([], dtype=np.int64), np.zeros((0, 4))
        )
        assert uniq.size == 0 and rows.shape == (0, 4)

    def test_group_rows_sum_sorted_vs_unsorted_lane(self):
        rng = np.random.default_rng(0)
        ids = rng.integers(0, 1000, size=64)
        rows = rng.normal(size=(64, 3))
        # dense-universe lane vs sort lane must agree
        u1, r1 = group_rows_sum(ids, rows, num_rows=1000)
        u2, r2 = group_rows_sum(ids, rows, num_rows=None)
        np.testing.assert_array_equal(u1, u2)
        np.testing.assert_allclose(r1, r2, **TOL)

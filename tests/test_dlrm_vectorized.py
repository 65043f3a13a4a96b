"""Property tests: vectorized DLRM hot path == seed per-id implementations.

The embedding lookup, its backward, the LoRA overlay forward and the
fused row-wise Adagrad step were rewritten as whole-array passes.  These
tests pin them to verbatim copies of the seed per-id reference
implementations across random id streams, duplicate ids, both
``group_rows_sum`` lanes and both float lanes, plus the TouchedRows
delta-lane semantics and the optimizer-state keying fixes.  The seed
references compute in float64; float32 tables are checked against them
with a float32 tolerance (the lane contract itself is pinned in
``tests/test_dtype_lanes.py``).
"""

import gc
import weakref

import numpy as np
import pytest

from repro.core.dtypes import ROW_DTYPE
from repro.core.kernels import TouchedRows, group_rows_sum
from repro.core.lora import LoRACollection
from repro.dlrm.embedding import EmbeddingTable, SparseRowGrad
from repro.dlrm.optim import RowwiseAdagrad

TOL = dict(rtol=1e-10, atol=1e-12)
LANES = pytest.mark.parametrize(
    "dtype, tol",
    [(np.float64, TOL), (ROW_DTYPE, dict(rtol=1e-5, atol=1e-6))],
    ids=["train", "serve"],
)


# ------------------------------------------------- seed reference implementations
def ref_lookup(weight, ids):
    """Seed EmbeddingTable.lookup: one row copy per id."""
    out = np.zeros((ids.size, weight.shape[1]), dtype=weight.dtype)
    for j, i in enumerate(ids):
        out[j] = weight[i]
    return out


def ref_grad_from_output(dim, ids, grad_out):
    """Seed EmbeddingTable.grad_from_output: one float64 add per occurrence."""
    acc: dict[int, np.ndarray] = {}
    for i, g in zip(ids.tolist(), grad_out):
        acc[i] = acc.get(i, np.zeros(dim)) + g
    uniq = sorted(acc)
    rows = np.array([acc[i] for i in uniq]).reshape(len(uniq), dim)
    return np.array(uniq, dtype=np.int64), rows


def ref_overlay_forward(weight, adapter, ids, hot):
    """Seed adapted lookup: ``W[i] + A[slot(i)] B`` per active, hot id."""
    slot_of = dict(zip(adapter.active_ids.tolist(), adapter._slots.slots.tolist()))
    out = np.zeros((ids.size, weight.shape[1]))
    for j, i in enumerate(ids.tolist()):
        out[j] = weight[i]
        slot = slot_of.get(i)
        if slot is not None and (hot is None or hot[j]):
            out[j] += adapter.a[slot] @ adapter.b
    return out


def ref_adagrad_step(weight, state, indices, rows, lr, eps):
    """Seed RowwiseAdagrad.step_sparse: separate probe/accumulate/scale."""
    g2 = (rows ** 2).mean(axis=1)
    state[indices] += g2
    scale = lr / np.sqrt(state[indices] + eps)
    weight[indices] -= scale[:, None] * rows


def random_ids(rng, num_rows, max_batch=200):
    """A random id stream with at least one duplicate."""
    ids = rng.integers(0, num_rows, size=int(rng.integers(2, max_batch + 1)))
    ids[-1] = ids[0]
    return ids


# ----------------------------------------------------------------------- forward
class TestLookupEquivalence:
    @LANES
    @pytest.mark.parametrize("seed", range(8))
    def test_random_ids(self, seed, dtype, tol):
        rng = np.random.default_rng(seed)
        table = EmbeddingTable(37, 5, rng=rng, dtype=dtype)
        ids = random_ids(rng, table.num_rows)
        got = table.lookup(ids)
        assert got.dtype == dtype
        # a gather: bit-identical to the per-id copy on either lane
        np.testing.assert_array_equal(got, ref_lookup(table.weight, ids))

    @pytest.mark.parametrize("seed", range(4))
    def test_gathers_into_a_slab_plane(self, seed):
        """``out=`` writes the rows into the caller's block, as the DLRM
        forward does with each field's plane of the interaction slab."""
        rng = np.random.default_rng(50 + seed)
        table = EmbeddingTable(41, 6, rng=rng)
        ids = random_ids(rng, table.num_rows, max_batch=64)
        slab = np.full((3, ids.size, table.dim), np.nan, dtype=table.dtype)
        got = table.lookup(ids, out=slab[1])
        assert np.shares_memory(got, slab[1])
        np.testing.assert_array_equal(slab[1], ref_lookup(table.weight, ids))
        assert np.isnan(slab[0]).all() and np.isnan(slab[2]).all()

    def test_empty_batch(self):
        table = EmbeddingTable(10, 4)
        out = table.lookup(np.array([], dtype=np.int64))
        assert out.shape == (0, 4) and out.dtype == table.dtype


class TestOverlayForwardEquivalence:
    @pytest.mark.parametrize("universe", [None, 23], ids=["sorted", "dense"])
    @pytest.mark.parametrize("hot_filter", [False, True], ids=["all", "hot"])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_seed_loop(self, seed, hot_filter, universe):
        rng = np.random.default_rng(200 + seed)
        table = EmbeddingTable(23, 4, rng=rng, dtype=np.float64)
        lora = LoRACollection(
            [4],
            2,
            [8],
            seed=seed,
            universes=None if universe is None else [universe],
            dtype=np.float64,
        )
        adapter = lora.adapters[0]
        adapter.activate_batch(np.array([1, 3, 5, 7, 11]))
        adapter.a[:] = rng.normal(size=adapter.a.shape)
        ids = random_ids(rng, table.num_rows)
        hot = rng.random(ids.size) < 0.5 if hot_filter else None
        overlay = lora.overlay(None if hot is None else lambda f, i: hot)
        got = overlay(0, ids, table.lookup(ids))
        want = ref_overlay_forward(table.weight, adapter, ids, hot)
        np.testing.assert_allclose(got, want, **TOL)
        # the overlay adjusts rows, never the base table
        np.testing.assert_array_equal(table.lookup(ids), ref_lookup(table.weight, ids))


# ---------------------------------------------------------------------- backward
class TestBackwardEquivalence:
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

    @LANES
    @pytest.mark.parametrize(
        "num_rows", [29, 50_000], ids=["counting-lane", "sort-lane"]
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_random_id_streams(self, seed, num_rows, dtype, tol):
        """Both ``group_rows_sum`` lanes: a table within 64x the batch
        counts in float64, a wider one sorts and sums on the input lane."""
        rng = np.random.default_rng(100 + seed)
        table = EmbeddingTable(num_rows, 4, rng=rng, dtype=dtype)
        ids = random_ids(rng, min(num_rows, 60), max_batch=120)
        grad_out = rng.normal(size=(ids.size, table.dim))
        got = table.grad_from_output(ids, grad_out)
        want_ids, want_rows = ref_grad_from_output(
            table.dim, ids, grad_out.astype(dtype).astype(np.float64)
        )
        assert got.rows.dtype == dtype
        np.testing.assert_array_equal(got.indices, want_ids)
        np.testing.assert_allclose(got.rows, want_rows, **tol)

    def test_heavy_duplicates(self):
        rng = np.random.default_rng(7)
        table = EmbeddingTable(5, 3, rng=rng, dtype=np.float64)
        ids = rng.integers(0, 5, size=200)  # every id massively duplicated
        grad_out = rng.normal(size=(200, 3))
        got = table.grad_from_output(ids, grad_out)
        want_ids, want_rows = ref_grad_from_output(3, ids, grad_out)
        np.testing.assert_array_equal(got.indices, want_ids)
        np.testing.assert_allclose(got.rows, want_rows, **TOL)


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

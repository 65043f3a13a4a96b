"""Tests for embedding tables and sparse gradients."""

import numpy as np
import pytest

from repro.dlrm.embedding import (
    EmbeddingBagCollection,
    EmbeddingTable,
    SparseRowGrad,
)


@pytest.fixture
def table():
    return EmbeddingTable(50, 8, rng=np.random.default_rng(0), name="t")


class TestSparseRowGrad:
    def test_shapes_validated(self):
        with pytest.raises(ValueError):
            SparseRowGrad(np.array([[1]]), np.zeros((1, 4)))
        with pytest.raises(ValueError):
            SparseRowGrad(np.array([1, 2]), np.zeros((3, 4)))

    def test_to_dense_roundtrip(self):
        grad = SparseRowGrad(np.array([1, 3]), np.ones((2, 4)))
        dense = grad.to_dense(5)
        assert dense.shape == (5, 4)
        assert dense[1].sum() == 4 and dense[3].sum() == 4
        assert dense[0].sum() == 0 and dense[2].sum() == 0

    def test_nnz_and_norm(self):
        grad = SparseRowGrad(np.array([0, 2]), np.array([[3.0, 4.0], [0.0, 0.0]]))
        assert grad.nnz_rows == 2
        assert grad.frobenius_norm() == pytest.approx(5.0)


class TestEmbeddingTable:
    def test_init_validates(self):
        with pytest.raises(ValueError):
            EmbeddingTable(0, 4)
        with pytest.raises(ValueError):
            EmbeddingTable(4, 0)

    def test_lookup_shape_and_values(self, table):
        rows = table.lookup(np.array([0, 1, 0]))
        assert rows.shape == (3, 8)
        np.testing.assert_array_equal(rows[0], rows[2])

    def test_lookup_out_of_range(self, table):
        with pytest.raises(IndexError):
            table.lookup(np.array([50]))
        with pytest.raises(IndexError):
            table.lookup(np.array([-1]))

    def test_pooled_mean_vs_sum(self, table):
        ids = np.array([1, 2, 3])
        offsets = np.array([0, 3])
        mean = table.lookup_pooled(ids, offsets, mode="mean")
        total = table.lookup_pooled(ids, offsets, mode="sum")
        np.testing.assert_allclose(total[0], 3 * mean[0])

    def test_pooled_empty_bag_is_zero(self, table):
        out = table.lookup_pooled(np.array([], dtype=int), np.array([0, 0]))
        np.testing.assert_array_equal(out, np.zeros((1, 8)))

    def test_grad_from_output_accumulates_duplicates(self, table):
        ids = np.array([5, 5, 7])
        grad_out = np.ones((3, 8))
        grad = table.grad_from_output(ids, grad_out)
        assert set(grad.indices.tolist()) == {5, 7}
        row5 = grad.rows[grad.indices.tolist().index(5)]
        np.testing.assert_allclose(row5, 2 * np.ones(8))

    def test_grad_from_pooled_mean_scaling(self, table):
        ids = np.array([1, 2])
        offsets = np.array([0, 2])
        grad_out = np.ones((1, 8))
        grad = table.grad_from_pooled(ids, offsets, grad_out, mode="mean")
        # each id in a bag of 2 gets grad/2 under mean pooling
        np.testing.assert_allclose(grad.rows, 0.5 * np.ones((2, 8)))

    def test_grad_from_pooled_finite_difference(self):
        # Central differences at eps=1e-6 need the float64 oracle lane.
        table = EmbeddingTable(50, 8, rng=np.random.default_rng(0), dtype=np.float64)
        ids = np.array([1, 2, 2, 5])  # bags [1, 2, 2] and [5]
        offsets = np.array([0, 3, 4])

        def loss():
            return float((table.lookup_pooled(ids, offsets) ** 2).sum())

        out = table.lookup_pooled(ids, offsets)
        grad = table.grad_from_pooled(ids, offsets, 2 * out, mode="mean")
        eps = 1e-6
        for pos, idx in enumerate(grad.indices):
            table.weight[idx, 0] += eps
            lp = loss()
            table.weight[idx, 0] -= 2 * eps
            lm = loss()
            table.weight[idx, 0] += eps
            assert grad.rows[pos, 0] == pytest.approx((lp - lm) / (2 * eps), abs=1e-6)

    def test_apply_sparse_update_moves_only_touched(self, table):
        before = table.weight.copy()
        grad = SparseRowGrad(np.array([3]), np.ones((1, 8)))
        table.apply_sparse_update(grad, lr=0.1)
        np.testing.assert_allclose(table.weight[3], before[3] - 0.1)
        untouched = np.delete(np.arange(50), 3)
        np.testing.assert_array_equal(table.weight[untouched], before[untouched])

    def test_touched_tracking(self, table):
        assert table.touched_fraction() == 0.0
        table.apply_sparse_update(
            SparseRowGrad(np.array([1, 2]), np.zeros((2, 8))), lr=0.1
        )
        assert table.touched_fraction() == pytest.approx(2 / 50)
        np.testing.assert_array_equal(table.touched_rows(), [1, 2])
        table.reset_touched()
        assert table.touched_fraction() == 0.0

    def test_assign_rows_marks_touched(self, table):
        table.assign_rows(np.array([4]), np.zeros((1, 8)))
        np.testing.assert_array_equal(table.weight[4], np.zeros(8))
        assert 4 in table.touched_rows()

    def test_copy_is_independent(self, table):
        dup = table.copy()
        dup.weight[0] += 1.0
        assert not np.allclose(dup.weight[0], table.weight[0])
        assert dup.touched_fraction() == 0.0

    def test_nbytes(self, table):
        assert table.nbytes == 50 * 8 * 4  # float32 rows


class TestEmbeddingBagCollection:
    def test_lookup_all_field_count_mismatch(self):
        coll = EmbeddingBagCollection(
            [EmbeddingTable(10, 4), EmbeddingTable(10, 4)]
        )
        with pytest.raises(ValueError):
            coll.lookup_all(np.zeros((2, 3), dtype=int))

    def test_lookup_all_shapes(self):
        coll = EmbeddingBagCollection(
            [EmbeddingTable(10, 4), EmbeddingTable(20, 4)]
        )
        out = coll.lookup_all(np.array([[0, 1], [2, 3]]))
        assert len(out) == 2
        assert all(o.shape == (2, 4) for o in out)

    def test_totals_and_touched(self):
        coll = EmbeddingBagCollection(
            [EmbeddingTable(10, 4), EmbeddingTable(30, 4)]
        )
        assert coll.total_rows == 40
        assert coll.nbytes == 40 * 4 * 4  # float32 rows
        coll[0].assign_rows(np.array([0]), np.zeros((1, 4)))
        assert coll.touched_fraction() == pytest.approx(1 / 40)
        coll.reset_touched()
        assert coll.touched_fraction() == 0.0

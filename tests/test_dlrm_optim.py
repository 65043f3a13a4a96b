"""Tests for SGD and row-wise Adagrad optimizers."""

import numpy as np
import pytest

from reference.optim import SGD
from repro.dlrm.embedding import EmbeddingTable, SparseRowGrad
from repro.dlrm.mlp import MLP
from repro.dlrm.optim import RowwiseAdagrad


def _grad(indices, dim, value=1.0):
    idx = np.array(indices)
    return SparseRowGrad(idx, np.full((len(idx), dim), value))


class TestSGD:
    def test_lr_validated(self):
        with pytest.raises(ValueError):
            SGD(lr=0.0)

    def test_sparse_step(self):
        table = EmbeddingTable(10, 4, rng=np.random.default_rng(0))
        before = table.weight.copy()
        SGD(lr=0.5).step_sparse(table, _grad([2], 4))
        np.testing.assert_allclose(table.weight[2], before[2] - 0.5)

    def test_dense_step(self):
        mlp = MLP([2, 2], rng=np.random.default_rng(0))
        x = np.ones((3, 2))
        out, cache = mlp.forward(x)
        _, grads = mlp.backward(cache, np.ones_like(out))
        before = mlp.weights[0].copy()
        SGD(lr=0.1).step_dense(mlp, grads)
        np.testing.assert_allclose(
            mlp.weights[0], before - 0.1 * grads.weights[0]
        )


class TestRowwiseAdagrad:
    def test_lr_validated(self):
        with pytest.raises(ValueError):
            RowwiseAdagrad(lr=-1.0)

    def test_effective_step_shrinks_with_repeats(self):
        table = EmbeddingTable(10, 4, rng=np.random.default_rng(0))
        opt = RowwiseAdagrad(lr=1.0)
        w0 = table.weight[1].copy()
        opt.step_sparse(table, _grad([1], 4))
        first_step = np.abs(table.weight[1] - w0).mean()
        w1 = table.weight[1].copy()
        opt.step_sparse(table, _grad([1], 4))
        second_step = np.abs(table.weight[1] - w1).mean()
        assert second_step < first_step

    def test_rows_have_independent_accumulators(self):
        table = EmbeddingTable(10, 4, rng=np.random.default_rng(0))
        opt = RowwiseAdagrad(lr=1.0)
        for _ in range(5):
            opt.step_sparse(table, _grad([1], 4))
        w3 = table.weight[3].copy()
        opt.step_sparse(table, _grad([3], 4))
        # row 3's first step is full-size despite row 1's history
        assert np.abs(table.weight[3] - w3).mean() == pytest.approx(1.0, rel=0.01)

    def test_touched_rows_recorded(self):
        table = EmbeddingTable(10, 4)
        RowwiseAdagrad().step_sparse(table, _grad([0, 5], 4))
        assert set(table.touched_rows().tolist()) == {0, 5}

    def test_state_tracks_multiple_tables(self):
        t1 = EmbeddingTable(10, 4)
        t2 = EmbeddingTable(20, 4)
        opt = RowwiseAdagrad(lr=1.0)
        opt.step_sparse(t1, _grad([0], 4))
        opt.step_sparse(t2, _grad([0], 4))
        assert len(opt._row_state) == 2

    def test_dense_adagrad_decreases_loss(self):
        rng = np.random.default_rng(1)
        mlp = MLP([3, 8, 1], rng=rng)
        x = rng.normal(size=(16, 3))
        opt = RowwiseAdagrad(lr=0.1)
        losses = []
        for _ in range(10):
            out, cache = mlp.forward(x)
            losses.append(float((out ** 2).sum()))
            _, grads = mlp.backward(cache, 2 * out)
            opt.step_dense(mlp, grads)
        assert losses[-1] < losses[0]

"""End-to-end DLRM tests: forward, backward, training, state management."""

import numpy as np
import pytest

from reference.lanes import float64_twin
from repro.dlrm.model import DLRM, DLRMConfig, sigmoid
from repro.dlrm.optim import SGD, RowwiseAdagrad


@pytest.fixture
def model():
    return DLRM(
        DLRMConfig(
            num_dense=3,
            embedding_dim=4,
            table_sizes=(20, 15),
            bottom_mlp=(8,),
            top_mlp=(8,),
            seed=1,
        )
    )


@pytest.fixture
def batch():
    rng = np.random.default_rng(2)
    return (
        rng.normal(size=(6, 3)),
        rng.integers(0, 15, size=(6, 2)),
        rng.integers(0, 2, size=6).astype(float),
    )


class TestSigmoid:
    def test_range_and_symmetry(self):
        z = np.array([-30.0, -1.0, 0.0, 1.0, 30.0])
        s = sigmoid(z)
        assert (s > 0).all() and (s < 1).all()
        assert s[2] == pytest.approx(0.5)
        assert s[1] + s[3] == pytest.approx(1.0)

    def test_no_overflow_for_large_negative(self):
        assert sigmoid(np.array([-1000.0]))[0] == pytest.approx(0.0, abs=1e-12)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            DLRMConfig(num_dense=0).validate()
        with pytest.raises(ValueError):
            DLRMConfig(table_sizes=()).validate()


class TestForward:
    def test_probabilities_in_range(self, model, batch):
        dense, sids, _ = batch
        probs = model.predict(dense, sids)
        assert probs.shape == (6,)
        assert ((probs > 0) & (probs < 1)).all()

    def test_overlay_changes_output(self, model, batch):
        dense, sids, _ = batch
        base = model.predict(dense, sids)

        def overlay(field, ids, rows):
            return rows + 0.5

        adjusted = model.predict(dense, sids, overlay=overlay)
        assert not np.allclose(base, adjusted)

    def test_identity_overlay_is_noop(self, model, batch):
        dense, sids, _ = batch
        base = model.predict(dense, sids)
        same = model.predict(dense, sids, overlay=lambda f, i, r: r)
        np.testing.assert_allclose(base, same)


class TestBackward:
    def test_embedding_gradient_finite_difference(self, model, batch):
        # Central differences at eps=1e-6 need the float64 oracle lane.
        model = float64_twin(model)
        dense, sids, labels = batch
        res = model.loss_and_grads(dense, sids, labels)
        table = model.embeddings[0]
        idx = int(res.embedding_grads[0].indices[0])
        analytic = res.embedding_grads[0].rows[0]
        eps = 1e-6
        for j in range(4):
            table.weight[idx, j] += eps
            lp = model.loss_and_grads(dense, sids, labels).loss
            table.weight[idx, j] -= 2 * eps
            lm = model.loss_and_grads(dense, sids, labels).loss
            table.weight[idx, j] += eps
            assert analytic[j] == pytest.approx((lp - lm) / (2 * eps), abs=1e-6)

    def test_dense_gradient_finite_difference(self, model, batch):
        model = float64_twin(model)
        dense, sids, labels = batch
        res = model.loss_and_grads(dense, sids, labels)
        eps = 1e-6
        w = model.top.weights[0]
        gw = res.top_grads.weights[0]
        w[1, 1] += eps
        lp = model.loss_and_grads(dense, sids, labels).loss
        w[1, 1] -= 2 * eps
        lm = model.loss_and_grads(dense, sids, labels).loss
        w[1, 1] += eps
        assert gw[1, 1] == pytest.approx((lp - lm) / (2 * eps), abs=1e-6)

    def test_loss_is_bce(self, model, batch):
        dense, sids, labels = batch
        res = model.loss_and_grads(dense, sids, labels)
        probs = model.predict(dense, sids)
        expect = -np.mean(
            labels * np.log(probs) + (1 - labels) * np.log(1 - probs)
        )
        assert res.loss == pytest.approx(expect, rel=1e-6)

    def test_embedding_grads_are_row_sparse(self, model, batch):
        dense, sids, labels = batch
        res = model.loss_and_grads(dense, sids, labels)
        for f, grad in enumerate(res.embedding_grads):
            assert set(grad.indices.tolist()) == set(
                np.unique(sids[:, f]).tolist()
            )


class TestTraining:
    @pytest.mark.parametrize("opt_cls", [SGD, RowwiseAdagrad])
    def test_loss_decreases(self, model, batch, opt_cls):
        dense, sids, labels = batch
        opt = opt_cls(lr=0.1)
        first = model.train_step(dense, sids, labels, opt).loss
        for _ in range(20):
            last = model.train_step(dense, sids, labels, opt).loss
        assert last < first

    def test_frozen_dense_leaves_mlps_unchanged(self, model, batch):
        dense, sids, labels = batch
        before = [w.copy() for w in model.bottom.weights]
        model.train_step(dense, sids, labels, SGD(lr=0.1), update_dense=False)
        for w_before, w_after in zip(before, model.bottom.weights):
            np.testing.assert_array_equal(w_before, w_after)

    def test_training_touches_embeddings(self, model, batch):
        dense, sids, labels = batch
        model.train_step(dense, sids, labels, SGD(lr=0.1))
        assert model.embeddings.touched_fraction() > 0


class TestState:
    def test_state_dict_roundtrip(self, model, batch):
        dense, sids, labels = batch
        state = model.state_dict()
        model.train_step(dense, sids, labels, SGD(lr=0.5))
        changed = model.predict(dense, sids)
        model.load_state_dict(state)
        restored = model.predict(dense, sids)
        assert not np.allclose(changed, restored) or np.allclose(
            changed, restored, atol=1e-12
        )
        # restored must equal the original pre-training prediction
        model2 = DLRM(model.config)
        model2.load_state_dict(state)
        np.testing.assert_allclose(
            restored, model2.predict(dense, sids), atol=1e-12
        )

    def test_copy_is_deep(self, model, batch):
        dense, sids, labels = batch
        dup = model.copy()
        dup.train_step(dense, sids, labels, SGD(lr=0.5))
        assert not np.allclose(
            dup.embeddings[0].weight, model.embeddings[0].weight
        )

    def test_sizes(self, model):
        assert model.num_sparse_fields == 2
        assert model.embedding_bytes == (20 + 15) * 4 * 4  # float32 rows
        assert model.dense_params > 0

"""Tests for the dense MLP including finite-difference gradient checks."""

import numpy as np
import pytest

from repro.dlrm.mlp import MLP


def _loss(mlp, x):
    return float((mlp(x) ** 2).sum())


class TestMLPForward:
    def test_needs_two_dims(self):
        with pytest.raises(ValueError):
            MLP([4])

    def test_output_shape(self):
        mlp = MLP([4, 8, 2], rng=np.random.default_rng(0))
        out = mlp(np.zeros((5, 4)))
        assert out.shape == (5, 2)

    def test_final_relu_nonnegative(self):
        mlp = MLP([4, 8, 3], rng=np.random.default_rng(0), final_relu=True)
        out = mlp(np.random.default_rng(1).normal(size=(20, 4)))
        assert (out >= 0).all()

    def test_linear_output_can_be_negative(self):
        mlp = MLP([4, 8, 3], rng=np.random.default_rng(0))
        out = mlp(np.random.default_rng(1).normal(size=(50, 4)))
        assert (out < 0).any()

    def test_num_params(self):
        mlp = MLP([4, 8, 2])
        assert mlp.num_params == 4 * 8 + 8 + 8 * 2 + 2


class TestMLPBackward:
    @pytest.mark.parametrize("final_relu", [False, True])
    def test_weight_gradients_match_finite_difference(self, final_relu):
        rng = np.random.default_rng(3)
        # Central differences at eps=1e-6 need the float64 oracle lane.
        mlp = MLP([3, 6, 2], rng=rng, final_relu=final_relu, dtype=np.float64)
        x = rng.normal(size=(4, 3))
        out, cache = mlp.forward(x)
        _, grads = mlp.backward(cache, 2 * out)  # d(sum out^2)/dout
        eps = 1e-6
        for layer in range(mlp.num_layers):
            w = mlp.weights[layer]
            i, j = 0, 0
            w[i, j] += eps
            lp = _loss(mlp, x)
            w[i, j] -= 2 * eps
            lm = _loss(mlp, x)
            w[i, j] += eps
            fd = (lp - lm) / (2 * eps)
            assert grads.weights[layer][i, j] == pytest.approx(fd, abs=1e-5)

    def test_bias_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(4)
        mlp = MLP([3, 5, 1], rng=rng, dtype=np.float64)
        x = rng.normal(size=(6, 3))
        out, cache = mlp.forward(x)
        _, grads = mlp.backward(cache, 2 * out)
        eps = 1e-6
        mlp.biases[0][2] += eps
        lp = _loss(mlp, x)
        mlp.biases[0][2] -= 2 * eps
        lm = _loss(mlp, x)
        mlp.biases[0][2] += eps
        assert grads.biases[0][2] == pytest.approx((lp - lm) / (2 * eps), abs=1e-5)

    def test_input_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(5)
        mlp = MLP([3, 4, 2], rng=rng, dtype=np.float64)
        x = rng.normal(size=(2, 3))
        out, cache = mlp.forward(x)
        grad_x, _ = mlp.backward(cache, 2 * out)
        eps = 1e-6
        x2 = x.copy()
        x2[1, 0] += eps
        lp = _loss(mlp, x2)
        x2[1, 0] -= 2 * eps
        lm = _loss(mlp, x2)
        assert grad_x[1, 0] == pytest.approx((lp - lm) / (2 * eps), abs=1e-5)

    def test_apply_grads_decreases_loss(self):
        rng = np.random.default_rng(6)
        mlp = MLP([3, 8, 1], rng=rng)
        x = rng.normal(size=(16, 3))
        for _ in range(5):
            out, cache = mlp.forward(x)
            before = float((out ** 2).sum())
            _, grads = mlp.backward(cache, 2 * out)
            mlp.apply_grads(grads, lr=0.01)
        after = float((mlp(x) ** 2).sum())
        assert after < before

    def test_copy_independent(self):
        mlp = MLP([2, 3, 1])
        dup = mlp.copy()
        dup.weights[0][0, 0] += 5.0
        assert mlp.weights[0][0, 0] != dup.weights[0][0, 0]


class TestDenseGrads:
    def test_scaled_and_norm(self):
        mlp = MLP([2, 2], rng=np.random.default_rng(0))
        x = np.ones((1, 2))
        out, cache = mlp.forward(x)
        _, grads = mlp.backward(cache, np.ones_like(out))
        doubled = grads.scaled(2.0)
        assert doubled.global_norm() == pytest.approx(2 * grads.global_norm())

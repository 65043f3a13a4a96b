"""Tests for the dot-product interaction layer."""

import numpy as np
import pytest

from repro.dlrm.interaction import DotInteraction


def _slab(dense, embs):
    """Field-major ``(m, batch, d)`` slab from a dense block and fields."""
    return np.stack([dense, *embs], axis=0)


class TestForward:
    def test_needs_two_features(self):
        with pytest.raises(ValueError):
            DotInteraction(1, 4)

    def test_output_dim(self):
        inter = DotInteraction(4, 8)
        assert inter.output_dim == 8 + 6  # d + C(4,2)

    def test_pair_values_are_dot_products(self):
        inter = DotInteraction(3, 2)
        dense = np.array([[1.0, 0.0]])
        e1 = np.array([[0.0, 1.0]])
        e2 = np.array([[2.0, 2.0]])
        out = inter.forward(_slab(dense, [e1, e2]))
        # passthrough
        np.testing.assert_array_equal(out[0, :2], dense[0])
        # pairs in (0,1), (0,2), (1,2) order
        assert out[0, 2] == pytest.approx(0.0)  # dense . e1
        assert out[0, 3] == pytest.approx(2.0)  # dense . e2
        assert out[0, 4] == pytest.approx(2.0)  # e1 . e2

    def test_wrong_feature_count_raises(self):
        inter = DotInteraction(3, 2)
        with pytest.raises(ValueError):
            inter.forward(np.zeros((4, 1, 2)))
        with pytest.raises(ValueError):
            inter.forward(np.zeros((3, 1, 5)))  # wrong dim

    def test_slab_planes_are_contiguous_and_sized(self):
        inter = DotInteraction(3, 4)
        slab = inter.slab(7)
        assert slab.shape == (3, 7, 4)
        assert all(plane.flags.c_contiguous for plane in slab)
        # a smaller request is a slice of the same scratch, not a new one
        assert np.shares_memory(inter.slab(2), slab)


class TestBackward:
    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(0)
        # Central differences at eps=1e-6 need the float64 oracle lane.
        inter = DotInteraction(3, 4, dtype=np.float64)
        slab = rng.normal(size=(3, 2, 4))

        def loss(s):
            return float((inter.forward(s) ** 2).sum())

        grad = inter.backward(slab, 2 * inter.forward(slab))
        eps = 1e-6
        for index in [(0, 0, 1), (2, 1, 2)]:  # the dense plane, a field plane
            bumped = slab.copy()
            bumped[index] += eps
            lp = loss(bumped)
            bumped[index] -= 2 * eps
            lm = loss(bumped)
            assert grad[index] == pytest.approx((lp - lm) / (2 * eps), abs=1e-5)

    def test_backward_shapes(self):
        inter = DotInteraction(4, 8)
        rng = np.random.default_rng(1)
        slab = rng.normal(size=(4, 3, 8))
        out = inter.forward(slab)
        grad = inter.backward(slab, np.ones_like(out))
        assert grad.shape == (4, 3, 8)


# One feature count per pair kernel: 5 takes the direct row products, 12
# the gram matmul.
KERNEL_SHAPES = (5, 12)


class TestScratchReuse:
    """The layer reuses grown scratch; results must not depend on it."""

    def test_results_stable_across_batch_size_changes(self):
        rng = np.random.default_rng(7)
        for features in KERNEL_SHAPES:
            warm = DotInteraction(features, 4)
            for batch in (6, 3, 6, 8, 3):
                filled = rng.normal(size=(features, batch, 4))
                grad = rng.normal(size=(batch, warm.output_dim))
                fresh = DotInteraction(features, 4)
                slab_w = warm.slab(batch)
                slab_w[...] = filled
                np.testing.assert_array_equal(
                    warm.forward(slab_w), fresh.forward(filled)
                )
                np.testing.assert_array_equal(
                    warm.backward(slab_w, grad), fresh.backward(filled, grad)
                )

    def test_outputs_do_not_alias_scratch(self):
        rng = np.random.default_rng(8)
        for features in KERNEL_SHAPES:
            inter = DotInteraction(features, 3)
            slab = inter.slab(2)
            slab[...] = rng.normal(size=slab.shape)
            out1 = inter.forward(slab)
            grad1 = inter.backward(slab, np.ones_like(out1))
            snapshot, grad_snapshot = out1.copy(), grad1.copy()
            # A second step over fresh inputs must not disturb earlier outputs.
            slab = inter.slab(2)
            slab[...] = rng.normal(size=slab.shape)
            inter.backward(slab, 2 * inter.forward(slab))
            np.testing.assert_array_equal(out1, snapshot)
            np.testing.assert_array_equal(grad1, grad_snapshot)

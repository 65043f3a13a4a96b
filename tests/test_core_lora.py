"""Tests for LoRA adapter tables."""

import numpy as np
import pytest

from reference.lanes import TRAIN
from repro.core.lora import LoRAAdapter, LoRACollection


@pytest.fixture
def adapter():
    """The algebra is pinned at float64 precision, on the oracle lane."""
    return LoRAAdapter(
        dim=8, rank=4, capacity=10, rng=np.random.default_rng(0), policy=TRAIN
    )


class TestBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            LoRAAdapter(dim=0, rank=1, capacity=1)
        with pytest.raises(ValueError):
            LoRAAdapter(dim=4, rank=8, capacity=1)  # rank > dim

    def test_fresh_adapter_is_noop(self, adapter):
        adapter.activate(3)
        delta = adapter.delta_rows(np.array([3]))
        np.testing.assert_array_equal(delta, np.zeros((1, 8)))

    def test_inactive_ids_contribute_zero(self, adapter):
        delta = adapter.delta_rows(np.array([7]))
        np.testing.assert_array_equal(delta, np.zeros((1, 8)))

    def test_apply_to_adds_delta(self, adapter):
        slot = adapter.activate(1)
        adapter.a[slot] = np.ones(4)
        base = np.zeros((1, 8))
        out = adapter.apply_to(np.array([1]), base)
        np.testing.assert_allclose(out[0], adapter.b.sum(axis=0))

    def test_nbytes_tracks_shapes(self, adapter):
        assert adapter.nbytes == adapter.a.nbytes + adapter.b.nbytes


class TestSlots:
    def test_activation_allocates_once(self, adapter):
        s1 = adapter.activate(5)
        s2 = adapter.activate(5)
        assert s1 == s2
        assert adapter.num_active == 1

    def test_capacity_exhaustion_returns_none(self, adapter):
        for i in range(10):
            assert adapter.activate(i) is not None
        assert adapter.activate(99) is None
        assert adapter.num_active == 10

    def test_deactivate_frees_slot(self, adapter):
        adapter.activate(1)
        assert adapter.deactivate(1) is True
        assert adapter.deactivate(1) is False
        assert adapter.num_active == 0
        assert adapter.activate(2) is not None

    def test_deactivate_zeroes_row(self, adapter):
        slot = adapter.activate(1)
        adapter.a[slot] = 7.0
        adapter.deactivate(1)
        slot2 = adapter.activate(3)
        np.testing.assert_array_equal(adapter.a[slot2], np.zeros(4))


class TestGradients:
    def test_accumulate_moves_delta_downhill(self, adapter):
        ids = np.array([0, 1])
        target = np.ones((2, 8))

        def dist():
            return np.linalg.norm(adapter.delta_rows(ids) - target)

        before = dist()
        for _ in range(200):
            g = adapter.delta_rows(ids) - target  # grad of 0.5||delta-target||^2
            adapter.accumulate_grad(ids, g, lr=0.05)
        assert dist() < 0.5 * before

    def test_skips_ids_without_slots(self, adapter):
        for i in range(10):
            adapter.activate(i)
        updated = adapter.accumulate_grad(
            np.array([50]), np.ones((1, 8)), lr=0.1
        )
        assert updated == 0

    def test_returns_update_count(self, adapter):
        n = adapter.accumulate_grad(np.array([1, 2]), np.ones((2, 8)), lr=0.1)
        assert n == 2


class TestRankResize:
    def _train(self, adapter, steps=50):
        ids = np.arange(6)
        rng = np.random.default_rng(1)
        for _ in range(steps):
            adapter.accumulate_grad(ids, rng.normal(size=(6, 8)), lr=0.1)

    def test_grow_preserves_delta(self, adapter):
        self._train(adapter)
        ids = np.arange(6)
        before = adapter.delta_rows(ids)
        adapter.resize_rank(6)
        np.testing.assert_allclose(adapter.delta_rows(ids), before, atol=1e-9)
        assert adapter.rank == 6
        assert adapter.a.shape == (10, 6)

    def test_shrink_is_best_rank_k(self, adapter):
        self._train(adapter)
        ids = np.arange(6)
        before = adapter.delta_rows(ids)
        u, s, vt = np.linalg.svd(before, full_matrices=False)
        best2 = (u[:, :2] * s[:2]) @ vt[:2]
        adapter.resize_rank(2)
        np.testing.assert_allclose(adapter.delta_rows(ids), best2, atol=1e-8)

    def test_invalid_rank(self, adapter):
        with pytest.raises(ValueError):
            adapter.resize_rank(0)
        with pytest.raises(ValueError):
            adapter.resize_rank(9)  # > dim

    def test_shrink_empty_adapter_keeps_learning_alive(self, adapter):
        adapter.resize_rank(2)
        assert np.linalg.norm(adapter.b) > 0  # non-degenerate B
        n = adapter.accumulate_grad(np.array([0]), np.ones((1, 8)), lr=0.1)
        assert n == 1
        assert np.linalg.norm(adapter.delta_rows(np.array([0]))) > 0


class TestCapacityResize:
    def test_grow_preserves_assignments(self, adapter):
        slot = adapter.activate(3)
        adapter.a[slot] = 5.0
        adapter.resize_capacity(20)
        assert adapter.capacity == 20
        new_slot = adapter.slot_of(3)
        np.testing.assert_array_equal(adapter.a[new_slot], np.full(4, 5.0))

    def test_shrink_evicts_smallest_norms(self, adapter):
        for i in range(6):
            slot = adapter.activate(i)
            adapter.a[slot] = float(i)  # id 0 has the smallest norm
        adapter.resize_capacity(3)
        assert adapter.num_active == 3
        assert not adapter.is_active(0)
        assert adapter.is_active(5)

    def test_invalid_capacity(self, adapter):
        with pytest.raises(ValueError):
            adapter.resize_capacity(0)


class TestMerge:
    def test_merge_into_applies_and_resets(self, adapter):
        slot = adapter.activate(2)
        adapter.a[slot] = np.ones(4)
        expected_delta = adapter.a[slot] @ adapter.b
        weight = np.zeros((10, 8))
        merged = adapter.merge_into(weight)
        assert merged == 1
        np.testing.assert_allclose(weight[2], expected_delta)
        assert adapter.num_active == 0

    def test_merge_skips_out_of_range_ids(self, adapter):
        slot = adapter.activate(9)
        adapter.a[slot] = np.ones(4)
        weight = np.zeros((5, 8))  # id 9 out of range
        assert adapter.merge_into(weight) == 0


class TestCollection:
    def test_dims_capacities_must_align(self):
        with pytest.raises(ValueError):
            LoRACollection([8, 8], rank=2, capacities=[4])

    def test_overlay_without_filter_applies_everywhere(self):
        coll = LoRACollection([4], rank=2, capacities=[8], seed=0)
        slot = coll[0].activate(1)
        coll[0].a[slot] = np.ones(2)
        overlay = coll.overlay()
        base = np.zeros((2, 4))
        out = overlay(0, np.array([1, 2]), base)
        assert np.linalg.norm(out[0]) > 0   # active id adjusted
        np.testing.assert_array_equal(out[1], np.zeros(4))  # inactive: zero delta

    def test_overlay_respects_hot_filter(self):
        coll = LoRACollection([4], rank=2, capacities=[8], seed=0)
        slot = coll[0].activate(1)
        coll[0].a[slot] = np.ones(2)

        def cold_filter(field, ids):
            return np.zeros(len(ids), dtype=bool)

        overlay = coll.overlay(hot_filter=cold_filter)
        base = np.zeros((1, 4))
        np.testing.assert_array_equal(overlay(0, np.array([1]), base), base)

    def test_reset_clears_all(self):
        coll = LoRACollection([4, 4], rank=2, capacities=[8, 8], seed=0)
        coll[0].activate(1)
        coll[1].activate(2)
        coll.reset()
        assert coll.num_active == 0

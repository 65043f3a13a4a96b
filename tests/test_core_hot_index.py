"""Tests for the Hot Index Filter."""

import numpy as np
import pytest

from repro.core.hot_index import HotIndexFilter


class TestBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            HotIndexFilter([])

    def test_unmarked_ids_cold(self):
        f = HotIndexFilter([16, 16])
        mask = f.is_hot(0, np.array([1, 2, 3]))
        assert not mask.any()

    def test_marked_ids_hot(self):
        f = HotIndexFilter([16, 16])
        f.mark(0, np.array([1, 3]))
        mask = f.is_hot(0, np.array([1, 2, 3]))
        assert mask.tolist() == [True, False, True]

    def test_fields_independent(self):
        f = HotIndexFilter([16, 16])
        f.mark(0, np.array([1]))
        assert not f.is_hot(1, np.array([1])).any()

    def test_callable_alias(self):
        f = HotIndexFilter([16])
        f.mark(0, np.array([4]))
        assert f(0, np.array([4])).all()

    def test_marks_persist_until_clear(self):
        f = HotIndexFilter([16, 16])
        f.mark(0, np.array([1]))
        f.mark(1, np.array([2]))
        f.mark(0, np.array([1, 5]))
        assert f.is_hot(0, np.array([1, 5])).all()
        f.clear()
        assert not f.is_hot(0, np.array([1, 5])).any()
        assert not f.is_hot(1, np.array([2])).any()

    def test_ids_outside_the_universe_are_cold(self):
        f = HotIndexFilter([16])
        f.mark(0, np.array([-1, 3, 16, 99]))
        mask = f.is_hot(0, np.array([-1, 3, 15, 16, 99]))
        assert mask.tolist() == [False, True, False, False, False]
        assert mask.dtype == bool

    def test_one_byte_per_row(self):
        f = HotIndexFilter([100, 30])
        assert [m.nbytes for m in f._marked] == [100, 30]

    def test_each_field_has_its_own_universe(self):
        f = HotIndexFilter([16, 30])
        f.mark(0, np.array([20]))
        f.mark(1, np.array([20]))
        assert not f.is_hot(0, np.array([20])).any()
        assert f.is_hot(1, np.array([20])).all()

    def test_remarking_and_duplicates_are_idempotent(self):
        f = HotIndexFilter([16])
        f.mark(0, np.array([2, 2, 7]))
        f.mark(0, np.array([7, 2]))
        assert np.flatnonzero(f.is_hot(0, np.arange(16))).tolist() == [2, 7]

    def test_empty_batches(self):
        f = HotIndexFilter([16])
        f.mark(0, np.array([], dtype=np.int64))
        mask = f.is_hot(0, np.array([], dtype=np.int64))
        assert mask.shape == (0,) and mask.dtype == bool
        assert not f.is_hot(0, np.arange(16)).any()

    def test_mask_follows_query_order_and_repeats(self):
        f = HotIndexFilter([16])
        f.mark(0, np.array([4, 9]))
        mask = f.is_hot(0, np.array([9, 1, 4, 9, 4, 1]))
        assert mask.tolist() == [True, False, True, True, True, False]

    def test_returned_mask_is_not_the_filter(self):
        f = HotIndexFilter([16])
        f.mark(0, np.array([3]))
        mask = f.is_hot(0, np.arange(16))
        mask[:] = False
        assert f.is_hot(0, np.array([3])).all()

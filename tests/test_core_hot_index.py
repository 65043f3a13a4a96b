"""Tests for the Hot Index Filter."""

import numpy as np
import pytest

from repro.core.hot_index import HotIndexFilter


class TestBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            HotIndexFilter(0)
        with pytest.raises(ValueError):
            HotIndexFilter(1, expiry_s=0)

    def test_unmarked_ids_cold(self):
        f = HotIndexFilter(2)
        mask = f.is_hot(0, np.array([1, 2, 3]))
        assert not mask.any()

    def test_marked_ids_hot(self):
        f = HotIndexFilter(2)
        f.mark(0, np.array([1, 3]))
        mask = f.is_hot(0, np.array([1, 2, 3]))
        assert mask.tolist() == [True, False, True]

    def test_fields_independent(self):
        f = HotIndexFilter(2)
        f.mark(0, np.array([1]))
        assert not f.is_hot(1, np.array([1])).any()

    def test_callable_alias(self):
        f = HotIndexFilter(1)
        f.mark(0, np.array([4]))
        assert f(0, np.array([4])).all()

    def test_clear_one_field(self):
        f = HotIndexFilter(2)
        f.mark(0, np.array([1]))
        f.mark(1, np.array([2]))
        f.clear(0)
        assert not f.is_hot(0, np.array([1])).any()
        assert f.is_hot(1, np.array([2])).all()

    def test_clear_all(self):
        f = HotIndexFilter(2)
        f.mark(0, np.array([1]))
        f.clear()
        assert not f.is_hot(0, np.array([1])).any()


class TestExpiry:
    def test_entries_expire(self):
        f = HotIndexFilter(1, expiry_s=10.0)
        f.mark(0, np.array([1]), now=0.0)
        assert f.is_hot(0, np.array([1])).all()
        f.advance(20.0)
        assert not f.is_hot(0, np.array([1])).any()

    def test_remarking_refreshes(self):
        f = HotIndexFilter(1, expiry_s=10.0)
        f.mark(0, np.array([1]), now=0.0)
        f.mark(0, np.array([1]), now=8.0)
        f.advance(15.0)
        assert f.is_hot(0, np.array([1])).all()

    @pytest.mark.parametrize("num_rows", [None, 16], ids=["sorted", "dense"])
    def test_age_equal_to_expiry_is_still_hot(self, num_rows):
        f = HotIndexFilter(1, expiry_s=10.0, num_rows=num_rows)
        f.mark(0, np.array([1, 2]), now=5.0)
        f.advance(15.0)  # exactly expiry_s after the stamp
        assert f.is_hot(0, np.array([1, 2])).all()
        f.advance(15.5)
        assert not f.is_hot(0, np.array([1, 2])).any()

    @pytest.mark.parametrize("num_rows", [None, 16], ids=["sorted", "dense"])
    def test_each_id_ages_from_its_own_stamp(self, num_rows):
        f = HotIndexFilter(2, expiry_s=10.0, num_rows=num_rows)
        f.mark(0, np.array([1]), now=0.0)
        f.mark(1, np.array([1]), now=8.0)
        f.mark(0, np.array([2]), now=9.0)
        f.advance(15.0)
        assert f.is_hot(0, np.array([1, 2])).tolist() == [False, True]
        assert f.is_hot(1, np.array([1])).all()

    @pytest.mark.parametrize("num_rows", [None, 16], ids=["sorted", "dense"])
    def test_without_expiry_marks_persist_until_clear(self, num_rows):
        f = HotIndexFilter(1, num_rows=num_rows)
        f.mark(0, np.array([3]), now=0.0)
        f.advance(1e9)
        assert f.is_hot(0, np.array([3])).all()
        f.clear()
        assert not f.is_hot(0, np.array([3])).any()

    def test_clock_never_goes_backwards(self):
        f = HotIndexFilter(1, expiry_s=10.0)
        f.advance(100.0)
        f.mark(0, np.array([1]), now=50.0)  # stale stamp ignored for clock
        assert f.is_hot(0, np.array([1])).all()

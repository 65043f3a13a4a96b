"""Tests for the Zipf sampler and access-distribution analysis."""

import hashlib

import numpy as np
import pytest

from repro.data.zipf import (
    ZipfSampler,
    _alias_tables,
    access_cdf,
    zipf_head_share,
)


class TestZipfSampler:
    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfSampler(0)
        with pytest.raises(ValueError):
            ZipfSampler(10, exponent=0)

    def test_samples_in_range(self):
        s = ZipfSampler(100, 1.2, rng=np.random.default_rng(0))
        ids = s.sample(10_000)
        assert ids.min() >= 0 and ids.max() < 100

    def test_skew_increases_with_exponent(self):
        flat = ZipfSampler(1000, 0.3, rng=np.random.default_rng(0))
        steep = ZipfSampler(1000, 2.0, rng=np.random.default_rng(0))
        share_flat = np.isin(flat.sample(20_000), flat.hot_ids(0.1)).mean()
        share_steep = np.isin(steep.sample(20_000), steep.hot_ids(0.1)).mean()
        assert share_steep > share_flat

    def test_rank_order(self):
        s = ZipfSampler(100, 1.5, rng=np.random.default_rng(1))
        counts = np.bincount(s.sample(50_000), minlength=100)[s._rank_to_id]
        assert counts[0] > counts[10] > counts[50]

    def test_hot_ids_are_hottest(self):
        s = ZipfSampler(100, 1.5, rng=np.random.default_rng(3))
        hot = s.hot_ids(0.1)
        assert len(hot) == 10
        # id -> access probability: rank r's id is ``_rank_to_id[r]``
        prob = np.empty(100)
        prob[s._rank_to_id] = s._probs
        cold = np.setdiff1d(np.arange(100), hot)
        assert prob[hot].min() >= prob[cold].max()

    def test_empirical_matches_analytic_head_share(self):
        size, exp = 2000, 1.4
        s = ZipfSampler(size, exp, rng=np.random.default_rng(4))
        ids = s.sample(200_000)
        hot = set(s.hot_ids(0.10).tolist())
        emp = np.mean([i in hot for i in ids])
        assert emp == pytest.approx(zipf_head_share(exp, size, 0.10), abs=0.01)


def _digest(ids: np.ndarray) -> str:
    return hashlib.sha256(np.asarray(ids, dtype="<i8").tobytes()).hexdigest()


class TestAliasTables:
    """Alias tables are built once per ``(size, exponent)`` and shared; the
    draw streams are pinned to the values recorded before the tables were
    memoised (per-sampler Vose build, rank-then-id gather)."""

    def test_memoised_tables_are_read_only(self):
        accept, alias = _alias_tables(300, 1.3)
        with pytest.raises(ValueError):
            accept[0] = 0.5
        with pytest.raises(ValueError):
            alias[0] = 1

    def test_same_distribution_shares_one_table(self):
        a = ZipfSampler(400, 0.7, rng=np.random.default_rng(0), method="alias")
        b = ZipfSampler(400, 0.7, rng=np.random.default_rng(1), method="alias")
        a.sample(1)
        b.sample(1)
        assert a._accept is b._accept
        assert _alias_tables(400, 0.7) is _alias_tables(400, 0.7)

    def test_different_exponent_gets_its_own_table(self):
        a = ZipfSampler(400, 0.7, rng=np.random.default_rng(0), method="alias")
        c = ZipfSampler(400, 0.8, rng=np.random.default_rng(0), method="alias")
        a.sample(1)
        c.sample(1)
        assert a._accept is not c._accept
        assert not np.array_equal(a._accept, c._accept)

    def test_alias_draws_pinned(self):
        s = ZipfSampler(5000, 0.9, rng=np.random.default_rng(123), method="alias")
        first = s.sample(1000)
        assert first.dtype == np.int64
        assert first[:12].tolist() == [
            4205, 2637, 2830, 3503, 1769, 2507, 2970, 73, 3172, 838, 3515, 236
        ]
        assert int(first.sum()) == 2642605
        assert _digest(first) == (
            "48a59ad326cd6b44f5eda87692cb17ddef5b3e088ba0859f892046b0b8ae5bc5"
        )
        # the stream continues where the first call left it
        assert _digest(s.sample(1000)) == (
            "d1d8578bd2be42345b79b3a56dab6fa0d398ebdbff530a99c9ac145da2ea282e"
        )

    def test_cdf_draws_pinned(self):
        s = ZipfSampler(5000, 0.9, rng=np.random.default_rng(123))
        draws = s.sample(1000)
        assert draws.dtype == np.int64
        assert draws[:8].tolist() == [2108, 3891, 3163, 4298, 946, 1908, 3125, 2065]
        assert _digest(draws) == (
            "e06f23dc9ab1df1657c7c672d1409f88247479aae928b49aaf576afc1dcd897b"
        )


class TestHeadShare:
    def test_full_head_is_one(self):
        assert zipf_head_share(1.2, 100, 1.0) == pytest.approx(1.0)

    def test_monotone_in_exponent(self):
        shares = [zipf_head_share(s, 1000, 0.1) for s in (0.5, 1.0, 1.5)]
        assert shares[0] < shares[1] < shares[2]

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            zipf_head_share(1.0, 100, 0.0)


class TestAccessCDF:
    def test_monotone_and_bounded(self):
        counts = np.random.default_rng(0).integers(0, 100, 500)
        counts[0] = 1  # ensure some accesses
        idx_frac, acc_frac = access_cdf(counts)
        assert np.all(np.diff(acc_frac) >= 0)
        assert acc_frac[-1] == pytest.approx(1.0)
        assert idx_frac[-1] == pytest.approx(1.0)

    def test_no_accesses_raises(self):
        with pytest.raises(ValueError):
            access_cdf(np.zeros(10))

    def test_skewed_counts_front_loaded(self):
        counts = np.array([1000, 10, 10, 10, 10])
        idx_frac, acc_frac = access_cdf(counts)
        assert acc_frac[0] > 0.9

"""Tests for dataset specs (Table II) and stream builders."""

import pytest

from repro.data.datasets import (
    AVAZU,
    AVAZU_TB,
    BD_TB,
    CRITEO,
    CRITEO_TB,
    TABLE_II,
    build_stream,
)

TB = 1024 ** 4


class TestTableII:
    def test_all_five_rows_present(self):
        names = {s.name for s in TABLE_II}
        assert names == {"Avazu", "Criteo", "BD-TB", "Avazu-TB", "Criteo-TB"}

    def test_scaled_variants_are_50tb(self):
        for spec in (BD_TB, AVAZU_TB, CRITEO_TB):
            assert spec.embedding_bytes == 50 * TB
            assert spec.num_samples == 5_000_000_000

    def test_public_sets_match_paper_sizes(self):
        assert AVAZU.dataset_gb == pytest.approx(4.7, rel=0.01)
        assert CRITEO.dataset_gb == pytest.approx(11.0, rel=0.01)
        assert AVAZU.embedding_bytes / TB * 1024 == pytest.approx(0.55, rel=0.01)


class TestScaledTableSizes:
    def test_distributes_total(self):
        sizes = CRITEO.scaled_table_sizes(10_000)
        assert len(sizes) == 26
        assert abs(sum(sizes) - 10_000) / 10_000 < 0.2

    def test_power_law_profile(self):
        sizes = CRITEO.scaled_table_sizes(10_000)
        assert sizes[0] > sizes[5] > sizes[-1] or sizes[-1] >= 50

    def test_min_rows_enforced(self):
        sizes = BD_TB.scaled_table_sizes(500)
        assert min(sizes) >= 50


class TestBuildStream:
    def test_default_field_cap_is_six(self):
        stream = build_stream(BD_TB, total_rows=600)
        assert len(stream.config.table_sizes) == 6

    def test_overrides_forwarded(self):
        stream = build_stream(AVAZU, total_rows=600, drift_rate=0.5)
        assert stream.config.drift_rate == 0.5

    def test_stream_is_usable(self):
        stream = build_stream(AVAZU, total_rows=600, seed=7)
        b = stream.next_batch(16)
        assert b.sparse_ids.shape[1] == len(stream.config.table_sizes)

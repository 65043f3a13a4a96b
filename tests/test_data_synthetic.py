"""Tests for the drifting CTR stream."""

import numpy as np
import pytest

from reference.stream import advance_whole_tables
from repro.data.synthetic import _DRIFT_BLOCK_ROWS, DriftingCTRStream, StreamConfig


@pytest.fixture
def stream():
    return DriftingCTRStream(
        StreamConfig(table_sizes=(200, 100), num_dense=3, seed=0)
    )


class TestBatchGeneration:
    def test_shapes(self, stream):
        b = stream.next_batch(32)
        assert b.dense.shape == (32, 3)
        assert b.sparse_ids.shape == (32, 2)
        assert b.labels.shape == (32,)
        assert set(np.unique(b.labels)).issubset({0.0, 1.0})

    def test_ids_within_vocab(self, stream):
        b = stream.next_batch(500)
        assert b.sparse_ids[:, 0].max() < 200
        assert b.sparse_ids[:, 1].max() < 100

    def test_timestamping(self, stream):
        b1 = stream.next_batch(4, duration_s=10.0)
        b2 = stream.next_batch(4)
        assert b1.timestamp == 0.0
        assert b2.timestamp == 10.0

    def test_eval_batch_does_not_advance(self, stream):
        stream.eval_batch(4)
        assert stream.now == 0.0

    def test_batch_size_property(self, stream):
        assert stream.next_batch(7).size == 7


class TestDrift:
    def test_negative_advance_rejected(self, stream):
        with pytest.raises(ValueError):
            stream.advance(-1.0)

    def test_latents_move(self, stream):
        before = stream._latents[0].copy()
        stream.advance(600.0)
        assert not np.allclose(before, stream._latents[0])

    def test_teacher_logits_change_over_time(self, stream):
        dense = np.zeros((16, 3))
        sids = np.tile(np.arange(16)[:, None], (1, 2)) % 100
        before = stream.teacher_logits(dense, sids)
        stream.advance(1800.0)
        after = stream.teacher_logits(dense, sids)
        assert not np.allclose(before, after)

    def test_trend_injection_fires_on_schedule(self):
        s = DriftingCTRStream(
            StreamConfig(
                table_sizes=(100,), num_dense=2, trend_interval_s=100.0, seed=1
            )
        )
        s.advance(350.0)
        assert len(s.trend_log) == 3 * 1  # 3 events x 1 field

    def test_block_wise_drift_equals_the_whole_table_step(self):
        """Same draws, same arithmetic, on tables that are not a multiple
        of the block (one smaller than a block)."""
        sizes = (2 * _DRIFT_BLOCK_ROWS + 1001, _DRIFT_BLOCK_ROWS + 1, 7)
        cfg = StreamConfig(table_sizes=sizes, num_dense=2, seed=4,
                           trend_interval_s=500.0)
        blocked = DriftingCTRStream(cfg)
        whole = DriftingCTRStream(cfg)
        for seconds in (1.0, 60.0, 600.0, 0.0):
            blocked.advance(seconds)
            advance_whole_tables(whole, seconds)
            for got, want in zip(blocked._latents, whole._latents):
                assert got.tobytes() == want.tobytes()
        assert len(blocked.trend_log) == len(whole.trend_log) == 3 * 1
        assert blocked._rng.random() == whole._rng.random()

    def test_drift_is_variance_consistent(self):
        """Many small advances ~ one big advance in drift magnitude."""
        cfg = StreamConfig(table_sizes=(500,), num_dense=2, seed=2,
                           mean_reversion=0.0, trend_interval_s=1e9)
        small = DriftingCTRStream(cfg)
        big = DriftingCTRStream(cfg)
        start = small._latents[0].copy()
        for _ in range(100):
            small.advance(10.0)
        big.advance(1000.0)
        d_small = np.linalg.norm(small._latents[0] - start)
        d_big = np.linalg.norm(big._latents[0] - start)
        assert d_small == pytest.approx(d_big, rel=0.2)


class TestLocalContext:
    def test_local_changes_logits(self, stream):
        dense = np.zeros((8, 3))
        sids = np.tile(np.arange(8)[:, None], (1, 2)) % 100
        g = stream.teacher_logits(dense, sids, local=False)
        l = stream.teacher_logits(dense, sids, local=True)
        assert not np.allclose(g, l)

    def test_zero_scale_disables_local(self):
        s = DriftingCTRStream(
            StreamConfig(table_sizes=(50,), num_dense=2, local_context_scale=0.0)
        )
        dense = np.zeros((8, 2))
        sids = np.arange(8)[:, None] % 50
        np.testing.assert_allclose(
            s.teacher_logits(dense, sids, local=False),
            s.teacher_logits(dense, sids, local=True),
        )


class TestUtilities:
    def test_access_counts_shape_and_mass(self, stream):
        counts = stream.access_counts(0, num_samples=10_000)
        assert counts.shape == (200,)
        assert counts.sum() == 10_000

    def test_determinism_per_seed(self):
        cfg = StreamConfig(table_sizes=(100,), num_dense=2, seed=42)
        b1 = DriftingCTRStream(cfg).next_batch(16)
        b2 = DriftingCTRStream(cfg).next_batch(16)
        np.testing.assert_array_equal(b1.sparse_ids, b2.sparse_ids)
        np.testing.assert_array_equal(b1.labels, b2.labels)

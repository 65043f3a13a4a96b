"""Tests for AUC, log loss, calibration, and streaming AUC."""

import numpy as np
import pytest

from reference.metrics import auc_roc as scalar_auc_roc
from repro.dlrm.metrics import StreamingAUC, auc_roc, calibration_ratio, log_loss


class TestAUC:
    def test_perfect_ranking(self):
        labels = np.array([0, 0, 1, 1])
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        assert auc_roc(labels, scores) == 1.0

    def test_inverted_ranking(self):
        labels = np.array([0, 0, 1, 1])
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        assert auc_roc(labels, scores) == 0.0

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 2, 20000)
        scores = rng.random(20000)
        assert auc_roc(labels, scores) == pytest.approx(0.5, abs=0.02)

    def test_ties_get_half_credit(self):
        labels = np.array([0, 1])
        scores = np.array([0.5, 0.5])
        assert auc_roc(labels, scores) == pytest.approx(0.5)

    def test_single_class_is_nan(self):
        rng = np.random.default_rng(7)
        assert np.isnan(auc_roc(np.ones(5), rng.random(5)))
        assert np.isnan(auc_roc(np.zeros(5), rng.random(5)))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            auc_roc(np.ones(3), np.ones(4))

    def test_matches_naive_pairwise(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 2, 200).astype(float)
        scores = rng.random(200)
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        wins = (pos[:, None] > neg[None, :]).sum()
        ties = (pos[:, None] == neg[None, :]).sum()
        naive = (wins + 0.5 * ties) / (len(pos) * len(neg))
        assert auc_roc(labels, scores) == pytest.approx(naive, abs=1e-12)

    def test_run_start_midranks_match_the_scalar_loop_bit_for_bit(self):
        """300 random inputs, most with heavy ties (scores rounded to a few
        levels, repeated float32 probabilities, constant runs)."""
        rng = np.random.default_rng(36)
        for case in range(300):
            n = int(rng.integers(2, 3000))
            labels = rng.integers(0, 2, n)
            levels = int(rng.integers(1, 50))
            kind = case % 3
            if kind == 0:
                scores = rng.integers(0, levels, n) / levels
            elif kind == 1:
                scores = rng.random(n).astype(np.float32).round(2)
            else:
                scores = rng.random(n)
                scores[rng.random(n) < 0.3] = 0.5
            got, want = auc_roc(labels, scores), scalar_auc_roc(labels, scores)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), case


class TestLogLoss:
    def test_perfect_predictions(self):
        labels = np.array([0.0, 1.0])
        scores = np.array([0.0, 1.0])
        assert log_loss(labels, scores) < 1e-10

    def test_uniform_prediction(self):
        labels = np.array([0.0, 1.0])
        scores = np.array([0.5, 0.5])
        assert log_loss(labels, scores) == pytest.approx(np.log(2))

    def test_worse_predictions_cost_more(self):
        labels = np.array([1.0])
        assert log_loss(labels, np.array([0.3])) > log_loss(
            labels, np.array([0.7])
        )


class TestCalibration:
    def test_perfectly_calibrated(self):
        labels = np.array([1.0, 0.0, 1.0, 0.0])
        scores = np.array([0.5, 0.5, 0.5, 0.5])
        assert calibration_ratio(labels, scores) == pytest.approx(1.0)

    def test_no_positives_is_inf(self):
        assert calibration_ratio(np.zeros(4), np.full(4, 0.5)) == np.inf


class TestStreamingAUC:
    def test_empty_is_nan(self):
        assert np.isnan(StreamingAUC().value())

    def test_matches_batch_auc(self):
        rng = np.random.default_rng(2)
        labels = rng.integers(0, 2, 500).astype(float)
        scores = rng.random(500)
        s = StreamingAUC(window=1000)
        s.update(labels[:250], scores[:250])
        s.update(labels[250:], scores[250:])
        assert s.value() == pytest.approx(auc_roc(labels, scores))

    def test_window_eviction(self):
        s = StreamingAUC(window=10)
        s.update(np.ones(8), np.full(8, 0.9))
        s.update(np.zeros(8), np.full(8, 0.1))
        assert s.count == 10
        # only the last 10: 2 positives at 0.9, 8 negatives at 0.1
        assert s.value() == 1.0

    def test_reset(self):
        s = StreamingAUC()
        s.update(np.array([0, 1]), np.array([0.1, 0.9]))
        s.reset()
        assert s.count == 0

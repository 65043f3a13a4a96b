"""Tests for the ROC AUC."""

import numpy as np
import pytest

from reference.metrics import auc_roc as scalar_auc_roc
from repro.dlrm.metrics import auc_roc


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

    @pytest.mark.parametrize("seed", range(4))
    def test_invariant_under_monotone_rescoring(self, seed):
        """AUC reads only the ranking: a strictly increasing map of the
        scores (ties kept as ties) leaves it unchanged."""
        rng = np.random.default_rng(100 + seed)
        labels = rng.integers(0, 2, 500)
        scores = rng.integers(0, 40, 500) / 40
        want = auc_roc(labels, scores)
        assert auc_roc(labels, 3.0 * scores - 7.0) == pytest.approx(want, abs=1e-12)
        assert auc_roc(labels, np.exp(scores)) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_flipping_labels_complements(self, seed):
        rng = np.random.default_rng(200 + seed)
        labels = rng.integers(0, 2, 400)
        scores = rng.integers(0, 25, 400) / 25
        flipped = auc_roc(1 - labels, scores)
        assert flipped == pytest.approx(1.0 - auc_roc(labels, scores), abs=1e-12)

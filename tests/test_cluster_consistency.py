"""Tests for fleet replica-consistency checking."""

import pytest

from reference.optim import SGD
from repro.cluster.consistency import (
    check_prediction_consistency,
    parameter_divergence,
)
from repro.data.synthetic import DriftingCTRStream, StreamConfig
from repro.dlrm.model import DLRM, DLRMConfig

TABLE_SIZES = (50, 40)


def _model(seed=0):
    return DLRM(
        DLRMConfig(
            num_dense=3,
            embedding_dim=4,
            table_sizes=TABLE_SIZES,
            bottom_mlp=(8,),
            top_mlp=(8,),
            seed=seed,
        )
    )


def _probe(seed=1):
    stream = DriftingCTRStream(
        StreamConfig(table_sizes=TABLE_SIZES, num_dense=3, seed=seed)
    )
    return stream.next_batch(32)


class TestPredictionConsistency:
    def test_identical_replicas_consistent(self):
        base = _model()
        fleet = [base.copy() for _ in range(3)]
        report = check_prediction_consistency(fleet, _probe())
        assert report.consistent
        assert report.max_prediction_gap == pytest.approx(0.0, abs=1e-15)
        assert "CONSISTENT" in report.summary

    def test_diverged_replica_detected(self):
        base = _model()
        fleet = [base.copy() for _ in range(3)]
        probe = _probe()
        fleet[2].train_step(
            probe.dense, probe.sparse_ids, probe.labels, SGD(lr=0.5)
        )
        report = check_prediction_consistency(fleet, probe)
        assert not report.consistent
        assert 2 in report.worst_pair
        assert "DIVERGED" in report.summary

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError):
            check_prediction_consistency([], _probe())

    def test_tolerance_respected(self):
        """A gap far inside the fixed 1e-9 tolerance is still consistent."""
        base = _model()
        fleet = [base.copy(), base.copy()]
        fleet[1].embeddings[0].weight += 1e-12
        report = check_prediction_consistency(fleet, _probe())
        assert report.consistent
        assert report.max_prediction_gap <= 1e-9

    def test_gap_past_tolerance_diverges(self):
        base = _model()
        fleet = [base.copy(), base.copy()]
        fleet[1].embeddings[0].weight += 1e-3
        report = check_prediction_consistency(fleet, _probe())
        assert not report.consistent
        assert report.max_prediction_gap > 1e-9
        assert report.worst_pair == (0, 1)


class TestParameterDivergence:
    def test_single_model_empty(self):
        assert parameter_divergence([_model()]) == {}

    def test_localizes_divergence(self):
        base = _model()
        fleet = [base.copy(), base.copy()]
        fleet[1].embeddings[1].weight[0] += 2.0
        div = parameter_divergence(fleet)
        assert div["table_1"] == pytest.approx(2.0)
        assert div["table_0"] == pytest.approx(0.0)
        assert div["dense"] == pytest.approx(0.0)

    def test_dense_divergence_reported(self):
        base = _model()
        fleet = [base.copy(), base.copy()]
        fleet[0].top.weights[0] += 0.25
        assert parameter_divergence(fleet)["dense"] == pytest.approx(0.25)

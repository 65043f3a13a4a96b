"""Metrics plane: histogram accuracy vs np.percentile, registry, exporters."""

import json

import numpy as np
import pytest

from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SNAPSHOT_SCHEMA_VERSION,
    render_json,
    render_prometheus,
    snapshot,
    validate_snapshot,
)


class TestHistogram:
    def test_quantiles_match_np_percentile_at_1e6_samples(self):
        # Acceptance criterion: within one bucket width (factor `growth`)
        # of np.percentile on a million-sample latency-shaped stream.
        rng = np.random.default_rng(12345)
        values = rng.lognormal(mean=1.0, sigma=0.8, size=1_000_000)
        h = Histogram("test.latency_ms", lo=1e-3, hi=1e5)
        h.observe_many(values)
        for q in (50.0, 90.0, 95.0, 99.0, 99.9):
            exact = float(np.percentile(values, q))
            est = h.quantile(q)
            assert exact / h.growth <= est <= exact * h.growth, (
                f"p{q}: histogram {est} vs exact {exact}"
            )

    def test_single_bincount_pass_equals_scalar_observes(self):
        rng = np.random.default_rng(7)
        values = rng.exponential(5.0, size=512)
        batched = Histogram("test.batched")
        batched.observe_many(values)
        scalar = Histogram("test.scalar")
        for v in values:
            scalar.observe(float(v))
        np.testing.assert_array_equal(batched.counts, scalar.counts)
        assert batched.count == scalar.count == 512
        assert batched.sum == pytest.approx(scalar.sum)

    def test_constant_stream_reads_back_exactly(self):
        h = Histogram("test.constant")
        h.observe_many(np.full(1000, 7.25))
        assert h.quantile(50) == pytest.approx(7.25)
        assert h.quantile(99) == pytest.approx(7.25)
        assert h.min == pytest.approx(7.25)
        assert h.max == pytest.approx(7.25)
        assert h.mean == pytest.approx(7.25)

    def test_underflow_and_overflow_buckets(self):
        h = Histogram("test.range", lo=1.0, hi=100.0)
        h.observe_many(np.array([0.001, 1e6]))
        assert h.count == 2
        assert h.counts[0] == 1  # underflow
        assert h.counts[-1] == 1  # overflow
        # Quantiles clamp into the observed range even outside the lattice.
        assert h.quantile(99) == pytest.approx(1e6)
        assert h.quantile(1) == pytest.approx(0.001)

    def test_empty_histogram_reads_nan(self):
        h = Histogram("test.empty")
        assert np.isnan(h.quantile(50))
        assert np.isnan(h.min) and np.isnan(h.max) and np.isnan(h.mean)

    def test_reset_zeroes_in_place(self):
        h = Histogram("test.reset")
        h.observe_many(np.arange(10, dtype=np.float64) + 1.0)
        counts_ref = h.counts
        h.reset()
        assert h.count == 0 and h.sum == 0.0
        assert counts_ref is h.counts and not counts_ref.any()

    def test_bad_parameters_raise(self):
        with pytest.raises(ValueError):
            Histogram("test.bad", lo=0.0)
        with pytest.raises(ValueError):
            Histogram("test.bad", lo=10.0, hi=1.0)
        h = Histogram("test.ok")
        with pytest.raises(ValueError):
            h.quantile(101)


class TestCounterGauge:
    def test_counter_add(self):
        c = Counter("test.counter")
        c.add(5)
        c.add(1)
        assert c.value == 6
        with pytest.raises(ValueError):
            c.add(-1)

    def test_gauge_set(self):
        g = Gauge("test.gauge")
        g.set(3)
        assert g.value == 3.0
        g.set(-1.5)
        assert g.value == -1.5


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        a = reg.counter("a.b")
        assert reg.counter("a.b") is a
        assert "a.b" in reg and reg.get("a.b") is a

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("a.b")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("a.b")

    def test_name_validation(self):
        reg = MetricsRegistry()
        for bad in ("NoDots", "Upper.case", "trailing.", ".leading", "a..b"):
            with pytest.raises(ValueError):
                reg.counter(bad)
        reg.counter("fine.dotted_name.v2")

    def test_reset_preserves_handle_identity(self):
        reg = MetricsRegistry()
        c = reg.counter("a.b")
        h = reg.histogram("a.h")
        c.add(3)
        h.observe_many(np.ones(4))
        reg.reset()
        assert reg.counter("a.b") is c and c.value == 0
        assert reg.histogram("a.h") is h and h.count == 0


class TestExporters:
    def _populated(self):
        reg = MetricsRegistry()
        reg.counter("plane.requests", help="requests seen").add(42)
        reg.gauge("plane.version").set(7)
        h = reg.histogram("plane.latency_ms", lo=0.01, hi=1e4)
        h.observe_many(np.random.default_rng(0).exponential(5.0, 1000))
        return reg

    def test_snapshot_validates_against_schema(self):
        snap = snapshot(self._populated())
        assert snap["schema_version"] == SNAPSHOT_SCHEMA_VERSION
        assert validate_snapshot(snap) == []
        assert snap["counters"]["plane.requests"]["value"] == 42
        hist = snap["histograms"]["plane.latency_ms"]
        assert sum(n for _, n in hist["nonzero_buckets"]) == 1000

    def test_render_json_is_canonical_and_parseable(self):
        reg = self._populated()
        payload = json.loads(render_json(reg))
        assert validate_snapshot(payload) == []
        assert render_json(reg) == render_json(reg)

    def test_render_prometheus_format(self):
        text = render_prometheus(self._populated())
        assert "# TYPE repro_plane_requests counter" in text
        assert "repro_plane_requests 42" in text
        assert "# TYPE repro_plane_version gauge" in text
        assert "# TYPE repro_plane_latency_ms histogram" in text
        assert 'repro_plane_latency_ms_bucket{le="+Inf"} 1000' in text
        assert "repro_plane_latency_ms_count 1000" in text

    def test_validate_snapshot_catches_corruption(self):
        snap = snapshot(self._populated())
        assert validate_snapshot({"schema_version": 99}) != []
        bad = json.loads(json.dumps(snap))
        bad["histograms"]["plane.latency_ms"]["nonzero_buckets"][0][1] += 1
        assert any("sum to count" in e for e in validate_snapshot(bad))
        bad2 = json.loads(json.dumps(snap))
        bad2["counters"]["plane.requests"]["value"] = -1
        assert any("non-negative" in e for e in validate_snapshot(bad2))

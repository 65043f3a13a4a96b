"""Tracing plane: sim-clock spans, flight recorder, trace determinism."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.obs import FlightRecorder, SimClock, Tracer, WallClock
from repro.obs.__main__ import run_sync_scenario


def _cli_output(argv: list[str], hash_seed: str) -> bytes:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    return subprocess.run(
        [sys.executable, "-m", "repro.obs", *argv],
        capture_output=True, env=env, check=True,
    ).stdout


class TestSimClock:
    def test_advance_and_set(self):
        clock = SimClock()
        assert clock.now() == 0.0
        clock.advance(1.5)
        clock.set(10.0)
        assert clock.now() == 10.0

    def test_time_cannot_move_backwards(self):
        clock = SimClock()
        clock.set(5.0)
        with pytest.raises(ValueError):
            clock.advance(-1.0)
        with pytest.raises(ValueError):
            clock.set(4.0)

    def test_wall_clock_is_monotonic(self):
        clock = WallClock()
        assert clock.now() <= clock.now()


class TestTracer:
    def test_nested_spans_record_parentage_and_duration(self):
        clock = SimClock()
        tracer = Tracer(clock=clock)
        with tracer.span("outer.op") as outer:
            tracer.advance(1.0)
            with tracer.span("inner.op", rows=3) as inner:
                assert len(tracer._stack) == 2
                tracer.advance(0.5)
        assert not tracer._stack
        assert inner.parent_id == outer.span_id
        assert inner.duration == pytest.approx(0.5)
        assert outer.duration == pytest.approx(1.5)
        assert inner.attrs == {"rows": 3}

    def test_span_ids_are_sequential(self):
        tracer = Tracer(clock=SimClock())
        with tracer.span("a.b"):
            pass
        with tracer.span("c.d"):
            pass
        assert [s.span_id for s in tracer.spans] == [1, 2]

    def test_exception_marks_span_and_propagates(self):
        tracer = Tracer(clock=SimClock())
        with pytest.raises(RuntimeError):
            with tracer.span("fail.op"):
                raise RuntimeError("boom")
        (span,) = list(tracer.spans)
        assert span.attrs["error"] == "RuntimeError"
        assert span.end is not None

    def test_span_names_must_be_dotted_literals(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            tracer.span("NotDotted")

    def test_advance_is_noop_on_wall_clock(self):
        tracer = Tracer()  # WallClock by default
        tracer.advance(100.0)  # must not raise or jump anything

    def test_completed_spans_feed_recorder(self):
        recorder = FlightRecorder()
        tracer = Tracer(clock=SimClock(), recorder=recorder)
        with tracer.span("comp.sub.op", rows=2):
            tracer.advance(0.25)
        (event,) = recorder.events("comp.sub")
        assert event.kind == "span"
        assert event.message == "comp.sub.op"
        assert dict(event.attrs)["rows"] == 2

    def test_dump_json_is_deterministic(self):
        def one():
            tracer = Tracer(clock=SimClock())
            with tracer.span("a.op", n=1):
                tracer.advance(0.125)
            return tracer.dump_json()

        assert one() == one()


class TestFlightRecorder:
    def test_ring_capacity_per_component(self):
        rec = FlightRecorder()
        rec.capacity = 3  # read when a component's ring is made
        for i in range(5):
            rec.record("comp.a", "tick", f"event {i}")
        rec.record("comp.b", "tick", "other")
        events = rec.events("comp.a")
        assert len(events) == 3
        assert events[0].message == "event 2"  # oldest two fell off
        assert rec.components == ["comp.a", "comp.b"]

    def test_merged_events_are_seq_ordered(self):
        rec = FlightRecorder()
        rec.record("b.x", "k", "first")
        rec.record("a.y", "k", "second")
        assert [e.message for e in rec.events()] == ["first", "second"]

    def test_dump_text(self):
        rec = FlightRecorder()
        assert rec.dump_text() == "(flight recorder empty)"
        rec.record("comp.a", "tick", "hello", t=1.5, rows=3)
        text = rec.dump_text()
        assert "comp.a" in text and "hello" in text and "rows=3" in text


class TestTraceDeterminism:
    """The splitmix64-style pin: simulated traces are process-invariant."""

    def test_scenario_trace_is_identical_in_process(self):
        tracer_a, _, _ = run_sync_scenario(windows=2, seed=3)
        tracer_b, _, _ = run_sync_scenario(windows=2, seed=3)
        assert tracer_a.dump_json() == tracer_b.dump_json()

    def test_scenario_spans_ride_the_simulated_timeline(self):
        tracer, recorder, _ = run_sync_scenario(windows=2, seed=0)
        dump = tracer.dump()
        windows = [s for s in dump if s["name"] == "obs.scenario.window"]
        flushes = [s for s in dump if s["name"] == "shardstore.client.flush"]
        assert len(windows) == 2 and len(flushes) == 2
        # Window spans start at the cluster.timeline schedule (60 s cadence)
        assert windows[0]["start"] == pytest.approx(60.0)
        assert windows[1]["start"] == pytest.approx(120.0)
        # Flush spans last exactly the alpha-beta modelled transfer time.
        assert flushes[0]["duration_s"] > 0
        assert recorder.events("shardstore.client")

    def test_trace_dump_byte_identical_across_processes(self):
        args = ["--dump", "trace", "--windows", "3"]
        out_a = _cli_output(args, hash_seed="0")
        out_b = _cli_output(args, hash_seed="42")
        assert out_a == out_b
        payload = json.loads(out_a)
        assert any(s["name"] == "shardstore.client.pull" for s in payload)

    def test_metrics_json_byte_identical_across_processes(self):
        args = ["--dump", "metrics", "--format", "json"]
        out_a = _cli_output(args, hash_seed="1")
        out_b = _cli_output(args, hash_seed="7")
        assert out_a == out_b


class TestCli:
    def test_selfcheck_passes(self):
        out = _cli_output(["--selfcheck"], hash_seed="0")
        assert b"ok" in out

    def test_prometheus_dump_mentions_shardstore_counters(self):
        out = _cli_output(["--dump", "metrics"], hash_seed="0")
        assert b"repro_shardstore_client_rows_published" in out
        assert b"# TYPE repro_serving_latency_ms histogram" in out

    def test_flight_dump_lists_components(self):
        out = _cli_output(["--dump", "flight"], hash_seed="0")
        assert b"shardstore.client" in out


class TestScenarioMetrics:
    def test_scenario_populates_registry_counters(self):
        *_, reg = run_sync_scenario(windows=2, seed=1)
        # 2 windows x (256 + 128) staged rows flushed
        assert reg.get("shardstore.client.rows_published").value == 2 * (256 + 128)
        assert np.isfinite(
            reg.get("shardstore.client.transfer_seconds").quantile(50)
        )

    def test_scenario_charges_float32_rows(self):
        # The store defaults to the float32 lane: 4 bytes per element.
        *_, reg = run_sync_scenario(windows=2, seed=1)
        flushed = reg.get("shardstore.client.bytes_published").value
        assert flushed == 2 * (256 + 128) * 8 * 4

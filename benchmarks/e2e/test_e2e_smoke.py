"""Tier-1 smoke test of the end-to-end benchmark (``SMOKE`` scale, seconds).

Checks the contract between ``BENCHMARK.json`` and what ``run.py`` emits,
that exact metrics repeat for a seed (traced or not) and move with it, and
that traced self times add up to the traced wall.  No timing is asserted:
host numbers at this scale mean nothing.
"""

from __future__ import annotations

import re

import pytest

import compare
import run
from e2e_workloads import SMOKE, WORKLOADS

SPEC = run.load_spec()
NAMES = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def records():
    """Per workload: untraced seed 0, traced seed 0, untraced seed 1."""
    out = {}
    for name in NAMES:
        out[name] = {
            "plain": run.measure(name, 0, run.REFERENCE_SECONDS, SMOKE, trace=0),
            "traced": run.measure(name, 0, run.REFERENCE_SECONDS, SMOKE, trace=1),
            "other": run.measure(name, 1, run.REFERENCE_SECONDS, SMOKE, trace=0),
        }
    return out


def test_spec_is_well_formed():
    assert sorted(NAMES) == sorted(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME_RE.fullmatch(n) for n in names + NAMES)
    assert "setup_s" in END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert set(compare.EXACT_METRICS) <= PER_LAYER


@pytest.mark.parametrize("name", NAMES)
def test_runs_are_correct(records, name):
    for record in records[name].values():
        assert record["correct"], record["failures"]
        assert record["attempted"] >= 1 and record["failed"] == 0


@pytest.mark.parametrize("name", NAMES)
def test_emits_what_the_spec_names_and_nothing_else(records, name):
    plain, traced = records[name]["plain"], records[name]["traced"]
    assert set(plain["metrics"]) <= END_TO_END | PER_LAYER
    assert set(traced["metrics"]) <= END_TO_END | PER_LAYER
    result = run.contract_result(plain, SPEC)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == END_TO_END
    assert all(m["value"] != 0 for m in result["metrics"].values())
    assert set(run.contract_result(traced, SPEC)["metrics"]) == PER_LAYER


def test_every_per_layer_metric_is_measured_somewhere(records):
    measured = set()
    for name in NAMES:
        measured |= set(records[name]["traced"]["metrics"])
    assert PER_LAYER <= measured


@pytest.mark.parametrize("name", NAMES)
def test_exact_metrics_repeat_for_a_seed_and_move_with_it(records, name):
    plain, traced, other = (records[name][k] for k in ("plain", "traced", "other"))
    assert plain["iterations"] == traced["iterations"]
    exact = [m for m in compare.EXACT_METRICS if m in plain["metrics"]]
    assert exact
    for metric in exact:
        assert plain["metrics"][metric] == traced["metrics"][metric], metric
    moving = [m for m in exact if m != "paper.update_bytes" or name != "live_serve"]
    assert any(plain["metrics"][m] != other["metrics"][m] for m in moving)


@pytest.mark.parametrize("name", NAMES)
def test_self_times_sum_to_the_traced_wall(records, name):
    record = records[name]["traced"]
    metrics = record["metrics"]
    layers = sum(
        value
        for metric, value in metrics.items()
        if metric.endswith("_s")
        and "modelled" not in metric
        and metric not in ("setup_s", "windows_per_s", "harness.gen_s")
    )
    share = metrics["harness.unattributed_share"]
    assert 0.0 <= share < 1.0
    assert layers == pytest.approx(record["timed_s"] * (1.0 - share), rel=1e-6)


def test_live_serve_leaves_the_parameter_plane_alone(records):
    metrics = records["live_serve"]["traced"]["metrics"]
    assert metrics["paper.update_bytes"] == 0
    assert not any(
        value for metric, value in metrics.items() if metric.startswith("cluster.")
    )


def test_colo_window_touches_only_the_simulator_and_router(records):
    metrics = records["colo_window"]["traced"]["metrics"]
    assert not any(
        value
        for metric, value in metrics.items()
        if metric.startswith(("dlrm.", "core.", "cluster.", "data."))
    )


def test_compare_accepts_a_set_against_itself(records):
    runs = [r for name in NAMES for r in records[name].values()]
    rows = compare.compare(runs, runs, SPEC)
    assert len(rows) >= len(NAMES) * len(END_TO_END)
    assert {r["verdict"] for r in rows} <= {"within bound", "identical", "unresolved"}

"""Every exact and modelled row of the repo benchmark, pinned at smoke size.

Runs the four workloads of ``benchmarks/e2e`` at ``SMOKE`` scale, seed 0,
untraced and traced, and compares every metric ``run.clock_of`` reads from
the exact or the modelled clock against the committed snapshot
``tests/data/e2e_smoke_exact.json``.  Host-clock rows are not compared.
Two exact rows are left out because they count what an open loop did with
host time: ``serving.qos.sla_miss_share`` and ``harness.backlog_max``.

Counts and bytes must match exactly; every other row is a float and may
move by ``FLOAT_RTOL`` (BLAS builds differ in their last bits).  A change
that moves a row on purpose regenerates the snapshot in the same diff and
says which rows moved and why::

    PYTHONPATH=src python tests/test_e2e_exact_snapshot.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SNAPSHOT = REPO / "tests" / "data" / "e2e_smoke_exact.json"
sys.path.insert(0, str(REPO / "benchmarks" / "e2e"))

import run  # noqa: E402  (benchmarks/e2e is not a package)
from e2e_workloads import SMOKE  # noqa: E402

#: Open-loop rows that move with host speed, not with the code.
HOST_PACED = frozenset({"serving.qos.sla_miss_share", "harness.backlog_max"})
#: Units whose rows are integers and must match exactly.
EXACT_UNITS = frozenset({"count", "bytes"})
FLOAT_RTOL = 1e-6
MODES = {"untraced": 0, "traced": 1}

SPEC = run.load_spec()
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
NAMES = [w["name"] for w in SPEC["workloads"]]


def pinned_rows(record: dict) -> dict[str, float]:
    """The rows of one run record the snapshot pins."""
    return {
        name: value
        for name, value in sorted(record["metrics"].items())
        if name not in HOST_PACED
        and run.clock_of(name, UNITS[name]) in ("exact", "modelled")
    }


def measure_all() -> dict[str, dict[str, dict[str, float]]]:
    """``{workload: {mode: {row: value}}}`` at smoke size, seed 0."""
    return {
        name: {
            mode: pinned_rows(
                run.measure(name, 0, run.REFERENCE_SECONDS, SMOKE, trace=trace)
            )
            for mode, trace in MODES.items()
        }
        for name in NAMES
    }


@pytest.fixture(scope="module")
def measured():
    return measure_all()


@pytest.fixture(scope="module")
def snapshot():
    with open(SNAPSHOT, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("name", NAMES)
def test_exact_rows_match_the_snapshot(measured, snapshot, name, mode):
    got, want = measured[name][mode], snapshot[name][mode]
    assert sorted(got) == sorted(want)
    for row, expected in want.items():
        value = got[row]
        if UNITS[row] in EXACT_UNITS:
            assert value == expected, row
        else:
            assert math.isclose(value, expected, rel_tol=FLOAT_RTOL), (
                row, value, expected,
            )


if __name__ == "__main__":
    SNAPSHOT.parent.mkdir(exist_ok=True)
    with open(SNAPSHOT, "w", encoding="utf-8") as handle:
        json.dump(measure_all(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {SNAPSHOT}")

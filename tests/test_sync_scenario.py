"""A trainer and an inference node syncing through one store on a timeline.

The scenario: per update window of the ``cluster.timeline`` periodic
schedule, a trainer client stages two tables of 8-wide rows (256 + 128)
and flushes them as one version bump; an inference client pulls both
tables' deltas in one batched pull; the window's request latencies feed
an :class:`~repro.serving.qos.SLAMonitor`.  Every number checked here is
read off a component's own record: the clients' ``push_log`` /
``pull_log``, the store's version and sync points, the schedule's events
and the monitor's reports.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.cluster.network import GBE_100
from repro.cluster.shardstore import ShardClient, ShardedParameterStore
from repro.cluster.timeline import simulate_periodic_updates
from repro.serving.qos import SLAMonitor

ROWS, HALF, DIM = 256, 128, 8
UNIVERSE = 10 * ROWS
INTERVAL_S = 60.0
TESTS = os.path.dirname(os.path.abspath(__file__))


def run_sync_scenario(
    windows=2, seed=0, row_dtype=np.float32, replication=1, dead=()
):
    """Play ``windows`` update windows; returns every component.

    ``dead`` shards are killed before the first window.
    """
    store = ShardedParameterStore(
        num_shards=4,
        row_bytes=None,
        row_dim=DIM,
        row_dtype=row_dtype,
        replication=replication,
    )
    for sid in dead:
        store.kill_shard(sid)
    trainer = ShardClient(store)
    node = ShardClient(store)
    monitor = SLAMonitor(p99_target_ms=10.0, window_requests=ROWS)
    schedule = simulate_periodic_updates(
        horizon_s=windows * INTERVAL_S,
        interval_s=INTERVAL_S,
        update_duration_s=5.0,
        kind="delta",
    )
    rng = np.random.default_rng(seed)
    written: list[dict[str, tuple[np.ndarray, np.ndarray]]] = []
    pulled: list[dict[str, tuple[np.ndarray, np.ndarray]]] = []
    for _ in schedule.events:
        ids = rng.choice(UNIVERSE, size=ROWS, replace=False)
        rows = rng.normal(size=(ROWS, DIM))
        trainer.stage("table_0", ids, rows)
        trainer.stage("table_1", ids[:HALF], rows[:HALF])
        trainer.flush()
        written.append(
            {"table_0": (ids, rows), "table_1": (ids[:HALF], rows[:HALF])}
        )
        deltas, _ = node.pull_tables(["table_0", "table_1"])
        pulled.append(deltas)
        monitor.observe(rng.lognormal(mean=1.0, sigma=0.6, size=ROWS))
    return {
        "store": store,
        "trainer": trainer,
        "node": node,
        "monitor": monitor,
        "schedule": schedule,
        "written": written,
        "pulled": pulled,
    }


def scenario_digest(windows=3, seed=0) -> str:
    """Both transfer logs and a hash of every pulled row, as one string."""
    run = run_sync_scenario(windows=windows, seed=seed)
    digest = hashlib.sha256()
    for deltas in run["pulled"]:
        for table in sorted(deltas):
            ids, rows = deltas[table]
            digest.update(ids.tobytes())
            digest.update(rows.tobytes())
    return "\n".join(
        [
            repr(run["trainer"].push_log),
            repr(run["node"].pull_log),
            repr(run["store"].version),
            digest.hexdigest(),
        ]
    )


class TestScenarioAccounting:
    @pytest.mark.parametrize("windows", [1, 2, 4])
    def test_one_flush_and_one_pull_per_window(self, windows):
        run = run_sync_scenario(windows=windows)
        assert len(run["schedule"].events) == windows
        assert len(run["trainer"].push_log) == windows
        assert len(run["node"].pull_log) == windows
        assert run["trainer"].pull_log == [] and run["node"].push_log == []

    def test_each_window_is_one_version_bump(self):
        run = run_sync_scenario(windows=3)
        assert [r.version for r in run["trainer"].push_log] == [1, 2, 3]
        assert [r.version for r in run["node"].pull_log] == [1, 2, 3]
        assert run["store"].version == 3

    def test_rows_published_per_window(self):
        run = run_sync_scenario(windows=2, seed=1)
        pushes = run["trainer"].push_log
        assert [r.rows for r in pushes] == [ROWS + HALF] * 2
        assert all(r.tables == ["table_0", "table_1"] for r in pushes)

    @pytest.mark.parametrize(
        "row_dtype, itemsize", [(np.float32, 4), (np.float64, 8)]
    )
    def test_bytes_charge_the_store_lane(self, row_dtype, itemsize):
        run = run_sync_scenario(windows=2, seed=1, row_dtype=row_dtype)
        flushed = sum(r.bytes for r in run["trainer"].push_log)
        pulled = sum(r.bytes for r in run["node"].pull_log)
        assert flushed == 2 * (ROWS + HALF) * DIM * itemsize
        assert pulled == flushed

    def test_transfer_seconds_follow_the_alpha_beta_model(self):
        run = run_sync_scenario(windows=2)
        reports = run["trainer"].push_log + run["node"].pull_log
        for report in reports:
            assert report.seconds == GBE_100.transfer_seconds(report.bytes)
            assert np.isfinite(report.seconds) and report.seconds > 0

    def test_window_starts_follow_the_timeline_cadence(self):
        run = run_sync_scenario(windows=3)
        events = run["schedule"].events
        assert [e.started_s for e in events] == [60.0, 120.0, 180.0]
        assert [e.version for e in events] == [1, 2, 3]
        assert all(e.duration_s == 5.0 for e in events)

    def test_monitor_closes_one_window_per_update(self):
        run = run_sync_scenario(windows=3)
        reports = run["monitor"].reports
        assert [r.window_id for r in reports] == [1, 2, 3]
        assert all(r.num_requests == ROWS == r.num_clean for r in reports)
        assert all(r.p50_ms <= r.p95_ms <= r.p99_ms for r in reports)


class TestScenarioRows:
    @pytest.mark.parametrize("row_dtype", [np.float32, np.float64])
    def test_node_pulls_exactly_what_the_trainer_flushed(self, row_dtype):
        run = run_sync_scenario(windows=2, seed=4, row_dtype=row_dtype)
        for written, pulled in zip(run["written"], run["pulled"]):
            for table, (ids, rows) in written.items():
                got_ids, got_rows = pulled[table]
                order = np.argsort(ids)
                np.testing.assert_array_equal(got_ids, ids[order])
                assert got_rows.dtype == row_dtype
                np.testing.assert_array_equal(
                    got_rows, rows[order].astype(row_dtype)
                )

    def test_node_is_fresh_after_every_pull(self):
        run = run_sync_scenario(windows=2)
        assert run["node"].staleness_versions() == 0
        assert run["trainer"].staleness_versions() == 2  # never pulls

    def test_only_the_puller_pins_compaction(self):
        run = run_sync_scenario(windows=2)
        store = run["store"]
        assert store._sync_points == {1: 2}  # one reader, at version 2
        assert run["trainer"]._sync_token is None
        assert store.oldest_sync_point() == run["node"].synced_version


class TestScenarioReplicated:
    @pytest.mark.parametrize("replication", [1, 3])
    def test_each_row_is_charged_once_whatever_the_copies(self, replication):
        run = run_sync_scenario(windows=2, replication=replication)
        assert [r.bytes for r in run["trainer"].push_log] == [
            (ROWS + HALF) * DIM * 4
        ] * 2

    def test_one_dead_replica_keeps_every_pull_exact(self):
        run = run_sync_scenario(windows=2, seed=5, replication=3, dead=(0,))
        assert run["store"].replication_lag > 0  # shard 0 missed publishes
        assert all(r.outcome == "ok" for r in run["node"].pull_log)
        for written, pulled in zip(run["written"], run["pulled"]):
            for table, (ids, _) in written.items():
                assert pulled[table][0].tolist() == np.sort(ids).tolist()


class TestScenarioDeterminism:
    def test_replay_is_identical_in_process(self):
        assert scenario_digest(windows=2, seed=3) == scenario_digest(
            windows=2, seed=3
        )

    def test_seed_changes_the_rows(self):
        assert scenario_digest(windows=2, seed=3) != scenario_digest(
            windows=2, seed=4
        )

    def test_replay_is_identical_under_two_hash_seeds(self):
        outs = []
        for hashseed in ("1", "7"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hashseed
            env["PYTHONPATH"] = os.pathsep.join(
                [os.path.join(os.path.dirname(TESTS), "src"), TESTS]
            )
            proc = subprocess.run(
                [
                    sys.executable,
                    "-c",
                    "import test_sync_scenario as t; print(t.scenario_digest())",
                ],
                capture_output=True,
                text=True,
                env=env,
                timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
        assert "version=3" in outs[0]

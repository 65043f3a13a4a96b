"""The four workloads: world build, timed loop, correctness checks, metrics.

Each workload is one class with the same life cycle, driven by ``run.py``:

``__init__(seed, scale)``
    builds the world (this is what ``setup_s`` times);
``patch(rec)``
    wraps the public methods of the instances it built with spans;
``run(iterations, rec)``
    the timed loop — one process, one thread, a fixed iteration count, so
    the modelled and accuracy numbers repeat exactly for a seed;
``finish()``
    runs the correctness checks and returns every metric it can compute
    without spans (the span-derived ``*_s`` self times are added by
    ``run.py``).

Two clocks, never mixed: **host** numbers come from :class:`HostClock`
(``perf_counter`` with the harness's own work taken out), **modelled**
numbers are whatever the alpha-beta / cache / latency models reported.

Why these four: ``live_serve`` is the paper's steady state (model plane
only, parameter plane idle); ``delta_sync`` is the baseline it beats
(writes beside plain reads on the parameter plane); ``fleet_sync`` uses
the same plane read-heavy through the resilient client under a gray
failure, so a gain on plain pulls that costs hedged pulls shows as the two
moving apart; ``colo_window`` touches only the simulator and router, so
any model- or parameter-plane change must leave it unchanged.
"""

from __future__ import annotations

import gc
import resource
from dataclasses import dataclass

import numpy as np

from e2e_trace import HostClock, SpanRecorder
from repro.cluster.faults import FaultEvent, FaultPlane, FaultSchedule
from repro.cluster.nodes import InferenceNode, TrainingCluster
from repro.cluster.resilience import ResiliencePolicy
from repro.cluster.shardstore import ShardClient, ShardedParameterStore
from repro.core.liveupdate import LiveUpdate, LiveUpdateConfig
from repro.core.sync import SparseLoRASynchronizer
from repro.core.trainer import LoRATrainer, TrainerConfig
from repro.data.arrivals import ArrivalConfig, BurstEpisode, RequestArrivalProcess
from repro.data.stream import InferenceLogBuffer
from repro.data.synthetic import DriftingCTRStream, StreamConfig
from repro.dlrm.metrics import auc_roc
from repro.dlrm.model import DLRM, DLRMConfig
from repro.dlrm.optim import RowwiseAdagrad
from repro.hardware.vectorcache import BatchLRUCache, IntervalCache
from repro.serving.engine import ColocatedNodeSimulator, NodeSimConfig
from repro.serving.qos import SLAMonitor
from repro.serving.router import ConsistentHashRouter

__all__ = [
    "Scale",
    "FULL",
    "SMOKE",
    "Outcome",
    "Workload",
    "LiveServe",
    "DeltaSync",
    "FleetSync",
    "ColoWindow",
    "WORKLOADS",
]

NUM_REPLICAS = 8
WORLD_S_PER_ITERATION = 6.0
AUC_WINDOW = 6
PRETRAIN_BATCH = 1024


@dataclass(frozen=True)
class Scale:
    """World shapes and cadences.  ``--seconds`` scales iteration counts
    only; ``SMOKE`` exists for the tier-1 smoke test and shrinks the world
    too, so its numbers compare with nothing."""

    table_sizes: tuple[int, ...]
    pretrain_steps: int
    # iteration counts that take about 30 s of timed host time on the
    # reference box (2 cores, BLAS pinned), and the floor `--seconds` may
    # scale them down to
    iterations: dict[str, int]
    min_iterations: dict[str, int]
    interval_s: float  # live_serve: one micro-batch is due this often
    base_qps: float
    max_batch: int
    live_window: int  # live_serve: batches per update window
    drift_every: int  # iterations between (expensive) world drift steps
    compact_every: int  # delta_sync: windows between store compactions
    route_keys: int  # colo_window: request keys routed per iteration
    sim_rows: int


FULL = Scale(
    table_sizes=(200_000, 200_000, 100_000, 50_000),
    pretrain_steps=300,
    iterations={
        "live_serve": 1500,
        "delta_sync": 1000,
        "fleet_sync": 310,
        "colo_window": 140,
    },
    min_iterations={
        "live_serve": 150,
        "delta_sync": 50,
        "fleet_sync": 24,
        "colo_window": 8,
    },
    interval_s=0.020,
    base_qps=100_000.0,
    max_batch=8192,
    live_window=50,
    drift_every=50,
    compact_every=50,
    route_keys=100_000,
    sim_rows=200_000,
)

SMOKE = Scale(
    table_sizes=(2000, 2000, 1000, 500),
    pretrain_steps=6,
    # equal to the floor, so a traced smoke run (a quarter of the length)
    # has the length of an untraced one and their exact metrics must agree
    iterations={
        "live_serve": 16,
        "delta_sync": 6,
        "fleet_sync": 5,
        "colo_window": 4,
    },
    min_iterations={
        "live_serve": 16,
        "delta_sync": 6,
        "fleet_sync": 5,
        "colo_window": 4,
    },
    interval_s=0.004,
    base_qps=50_000.0,
    max_batch=1024,
    live_window=8,
    drift_every=8,
    compact_every=3,
    route_keys=4000,
    sim_rows=8000,
)


@dataclass
class Outcome:
    """What one finished workload run hands back to ``run.py``."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    failures: list[str]
    timed_s: float  # host time of the timed region (harness work excluded)


def _world(seed: int, scale: Scale) -> tuple[DriftingCTRStream, DLRM]:
    """The shared world: a drifting CTR stream and an untrained DLRM."""
    stream = DriftingCTRStream(
        StreamConfig(table_sizes=scale.table_sizes, seed=seed)
    )
    model = DLRM(
        DLRMConfig(
            table_sizes=scale.table_sizes,
            embedding_dim=16,
            bottom_mlp=(32,),
            top_mlp=(64, 32),
            seed=seed,
        )
    )
    return stream, model


def _pretrained_world(seed: int, scale: Scale) -> tuple[DriftingCTRStream, DLRM]:
    """The shared world with the DLRM pre-trained on the stream."""
    stream, model = _world(seed, scale)
    optimizer = RowwiseAdagrad(lr=0.05)
    for _ in range(scale.pretrain_steps):
        batch = stream.next_batch(PRETRAIN_BATCH)
        model.train_step(batch.dense, batch.sparse_ids, batch.labels, optimizer)
    model.embeddings.reset_touched()
    return stream, model


def _windowed_auc(labels: list[np.ndarray], scores: list[np.ndarray]) -> float:
    """Mean AUC over consecutive ``AUC_WINDOW``-batch windows."""
    values = []
    for lo in range(0, len(labels) - AUC_WINDOW + 1, AUC_WINDOW):
        values.append(
            auc_roc(
                np.concatenate(labels[lo : lo + AUC_WINDOW]),
                np.concatenate(scores[lo : lo + AUC_WINDOW]),
            )
        )
    return float(np.mean(values))


def _patch_plane(
    rec: SpanRecorder, store: ShardedParameterStore, clients: list[ShardClient]
) -> None:
    """Spans on the parameter plane: every client session and the store."""
    for client in clients:
        rec.patch(client, "stage", "cluster.shardstore.client.stage")
        rec.patch(client, "flush", "cluster.shardstore.client.flush")
        rec.patch(client, "pull_tables", "cluster.shardstore.client.pull")
    for attr in ("publish_many", "publish_batch"):
        rec.patch(store, attr, "cluster.shardstore.store.publish")
    for attr in ("pull_delta", "pull_delta_primary", "pull_delta_ranges"):
        rec.patch(store, attr, "cluster.shardstore.store.pull_delta")
    rec.patch(store, "compact", "cluster.shardstore.store.compact")


def _transfer_metrics(prefix: str, reports: list) -> dict[str, float]:
    """Rows, bytes and modelled seconds of a client's flush or pull log."""
    return {
        f"{prefix}_rows": float(sum(r.rows for r in reports)),
        f"{prefix}_bytes": float(sum(r.bytes for r in reports)),
        f"{prefix}_modelled_s": float(sum(r.seconds for r in reports)),
    }


def _ms(seconds) -> np.ndarray:
    return np.asarray(seconds, dtype=np.float64) * 1e3


class Workload:
    """Shared bookkeeping: the clock, the check list, the common metrics."""

    name = ""

    def __init__(self, seed: int, scale: Scale) -> None:
        self.seed = seed
        self.scale = scale
        self.rng = np.random.default_rng(seed)
        self.failures: list[str] = []
        self.checks = 0
        self.operations = 0
        self.failed_operations = 0
        # per-iteration host seconds: busy time of the timed region, the
        # update action, and the latency the consumer saw where that is
        # not the busy time (the open loop adds queueing)
        self.busy_s: list[float] = []
        self.update_s: list[float] = []
        self.latency_s: list[float] = []

    def patch(self, rec: SpanRecorder) -> None:
        raise NotImplementedError

    def run(self, iterations: int, rec: SpanRecorder) -> None:
        raise NotImplementedError

    def _begin(self) -> float:
        """Start the timed region: fresh clock, collected heap, paused."""
        gc.collect()
        self.clock = HostClock()
        return self.clock.pause()

    def check(self, ok: bool, message: str) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(f"{self.name}: {message}")

    def _outcome(self, metrics: dict[str, float], samples: int) -> Outcome:
        """Add the metrics every workload shares; ``samples`` is the number
        of work units ``harness.cpu_us_per_sample`` is per."""
        busy = float(np.sum(self.busy_s))
        latency = _ms(self.latency_s or self.busy_s)
        metrics.update(
            {
                "windows_per_s": len(self.busy_s) / busy,
                "latency_p50_ms": float(np.percentile(latency, 50)),
                "latency_p95_ms": float(np.percentile(latency, 95)),
                "paper.latency_p99_ms": float(np.percentile(latency, 99)),
                "update_host_ms": float(np.median(_ms(self.update_s))),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                / 1024.0,
                "harness.gen_s": self.clock.harness_s,
                "harness.cpu_us_per_sample": busy / samples * 1e6,
            }
        )
        failed = self.failed_operations + len(self.failures)
        return Outcome(
            metrics=metrics,
            attempted=self.operations + self.checks,
            failed=failed,
            failures=self.failures,
            timed_s=busy,
        )


class LiveServe(Workload):
    """Open loop: micro-batches due every ``interval_s`` on one serving
    node that also trains its LoRA adapters between batches."""

    name = "live_serve"
    SLA_MS = 20.0

    def __init__(self, seed: int, scale: Scale) -> None:
        super().__init__(seed, scale)
        self.stream, model = _pretrained_world(seed, scale)
        # The node needs a parameter plane to be constructed; LiveUpdate
        # never touches it, which the trace confirms (all its spans are 0).
        self.store = ShardedParameterStore(num_shards=1)
        self.node = InferenceNode(model, self.store)
        self.live = LiveUpdate(
            self.node,
            trainer_cluster=None,
            trainer_config=TrainerConfig(seed=seed),
            config=LiveUpdateConfig(steps_per_slot=2),
        )
        # The ring layout is fleet configuration, not input: with a seeded
        # ring the replicas' shares, and so the work, would move with --seed.
        self.router = ConsistentHashRouter(list(range(NUM_REPLICAS)))
        self.monitor = SLAMonitor(
            p99_target_ms=self.SLA_MS, window_requests=scale.live_window
        )
        self.labels: list[np.ndarray] = []
        self.probs: list[np.ndarray] = []
        self.base_probs: list[np.ndarray] = []
        self.replica_load = np.zeros(NUM_REPLICAS, dtype=np.int64)
        self.update_bytes = 0.0
        self.hot_hits = 0
        self.hot_lookups = 0
        self.samples = 0
        self.start_late_s: list[float] = []
        self.backlog_max = 0

    def patch(self, rec: SpanRecorder) -> None:
        trainer = self.live.trainer
        lora_overlay = trainer.lora.overlay

        def traced_overlay(hot_filter=None):
            return rec.wrap(lora_overlay(hot_filter=hot_filter), "core.lora.overlay")

        trainer.lora.overlay = traced_overlay
        rec.patch(self.router, "route", "serving.router.route")
        rec.patch(self.node, "predict", "dlrm.predict")
        rec.patch(self.live.buffer, "append", "data.stream.append")
        rec.patch(self.live.buffer, "sample_minibatch", "data.stream.sample")
        rec.patch(trainer, "train_step", "core.trainer.step")
        rec.patch(self.live, "on_update_window", "core.liveupdate.window")
        rec.patch(self.monitor, "observe", "serving.qos.observe")
        _patch_plane(rec, self.store, [self.node.client])

    def _sizes(self, iterations: int) -> np.ndarray:
        """Micro-batch sizes: Poisson arrivals with two burst episodes of
        fixed shape (3x load, 6% of the run each) at seeded positions.
        Every seed then has 12% of its batches inside a burst, so the 95th
        percentile is a burst batch's latency and not the boundary between
        two populations."""
        scale = self.scale
        horizon = iterations * scale.interval_s
        arrivals = RequestArrivalProcess(
            ArrivalConfig(
                base_qps=scale.base_qps, diurnal_amplitude=0.0, seed=self.seed
            )
        )
        arrivals.bursts = [
            BurstEpisode(
                start_s=float(self.rng.uniform(lo, lo + 0.25)) * horizon,
                duration_s=0.06 * horizon,
                multiplier=3.0,
            )
            for lo in (0.1, 0.55)
        ]
        counts = arrivals.counts_per_interval(
            horizon + scale.interval_s, scale.interval_s, redraw_bursts=False
        )
        return np.clip(counts[:iterations], 1, scale.max_batch)

    def run(self, iterations: int, rec: SpanRecorder) -> None:
        scale = self.scale
        stream, live, node = self.stream, self.live, self.node
        router, monitor, rng = self.router, self.monitor, self.rng
        hot_filter = live.trainer.hot_filter
        fields = range(len(scale.table_sizes))
        sizes = self._sizes(iterations)
        token = self._begin()
        clock = self.clock
        prev_end = 0.0
        for i in range(iterations):
            # ---- harness (clock stopped): make batch i and its reference
            rec.iteration = i
            if i and i % scale.drift_every == 0:
                stream.advance(scale.drift_every * WORLD_S_PER_ITERATION)
            batch = stream.next_batch(int(sizes[i]), local=True)
            batch.timestamp = i * WORLD_S_PER_ITERATION
            keys = rng.integers(0, 1 << 62, size=batch.size)
            self.base_probs.append(node.model.predict(batch.dense, batch.sparse_ids))
            due = i * scale.interval_s
            clock.resume(token)
            # ---- system, on the open-loop clock
            while clock.now() < due:
                pass
            start = clock.now()
            replicas = router.route(keys)
            router.reset_window()
            probs = node.predict(batch, overlay=live.overlay())
            served = clock.now()
            live.on_serving_batch(batch)
            live.on_slot(batch.timestamp)
            monitor.observe(np.array([(served - due) * 1e3]))
            if (i + 1) % scale.live_window == 0:
                update_start = clock.now()
                cost = live.on_update_window(batch.timestamp)
                self.update_s.append(clock.now() - update_start)
                self.update_bytes += cost.bytes_moved
            end = clock.now()
            # ---- harness bookkeeping
            token = clock.pause()
            self.latency_s.append(served - due)
            self.busy_s.append(end - start)
            if prev_end <= due:  # no backlog: any lateness is the harness's
                self.start_late_s.append(start - due)
            prev_end = end
            self.backlog_max = max(
                self.backlog_max, int((start - due) / scale.interval_s)
            )
            self.operations += 1
            self.failed_operations += int(not np.isfinite(probs).all())
            self.samples += batch.size
            self.labels.append(batch.labels)
            self.probs.append(probs)
            self.replica_load += np.bincount(replicas, minlength=NUM_REPLICAS)
            if (i + 1) % scale.live_window == 0:
                for f in fields:
                    self.hot_hits += int(hot_filter(f, batch.sparse_ids[:, f]).sum())
                    self.hot_lookups += batch.size
        clock.resume(token)

    def finish(self) -> Outcome:
        live, trainer = self.live, self.live.trainer
        auc = _windowed_auc(self.labels, self.probs)
        base_auc = _windowed_auc(self.labels, self.base_probs)
        gain_pts = (auc - base_auc) * 100.0
        self.check(self.update_bytes == 0.0, "update moved bytes over a link")
        self.check(gain_pts > 0.0, f"overlay AUC gain {gain_pts:.4f} pts is not positive")
        self.check(bool(self.update_s), "no update window fired")
        latency = _ms(self.latency_s)
        report = trainer.report
        fields = len(self.scale.table_sizes)
        expected_steps = (
            live.config.steps_per_slot * len(self.busy_s)
            + live.config.steps_per_window * len(self.update_s)
        )
        load = self.replica_load
        return self._outcome(
            {
                "paper.auc": auc,
                "paper.auc_gain_pts": gain_pts,
                "paper.adapter_mem_pct": live.adapter_memory_fraction() * 100.0,
                "paper.update_bytes": self.update_bytes,
                "harness.generator_late_ms": float(
                    np.percentile(_ms(self.start_late_s), 99)
                ),
                "harness.backlog_max": float(self.backlog_max),
                "serving.router.keys": float(self.samples),
                "serving.router.spill_ratio": self.router.stats.spill_ratio,
                "serving.router.imbalance": float(load.max() / load.mean()),
                "dlrm.predict_samples": float(self.samples),
                "core.lora.overlay_ids": float(
                    fields * (self.samples + report.samples_seen)
                ),
                "core.lora.hot_hit_ratio": self.hot_hits / max(self.hot_lookups, 1),
                "core.lora.active_rows": float(trainer.lora.num_active),
                "data.stream.buffered_samples": float(len(live.buffer)),
                "core.trainer.steps": float(report.steps),
                "core.trainer.empty_steps": float(expected_steps - report.steps),
                "core.trainer.rows_updated": float(report.rows_updated),
                "core.trainer.rank_changes": float(report.rank_changes),
                "core.trainer.prune_events": float(report.prune_events),
                "core.liveupdate.adapter_bytes": float(live.adapter_memory_bytes()),
                "serving.qos.sla_miss_share": float(np.mean(latency > self.SLA_MS)),
            },
            samples=self.samples,
        )


class DeltaSync(Workload):
    """Closed loop, one client: train, publish the delta, two nodes pull
    it on the plain path and serve."""

    name = "delta_sync"
    TRAIN_STEPS = 4
    TRAIN_BATCH = 1024
    SERVE_BATCH = 2048
    NODES = 2

    def __init__(self, seed: int, scale: Scale) -> None:
        super().__init__(seed, scale)
        self.stream, model = _world(seed, scale)
        self.store = ShardedParameterStore(
            num_shards=NUM_REPLICAS, replication=3, row_dim=16
        )
        # Pre-trained through the cluster, so its optimizer state carries
        # over into the timed windows as it would in production.
        self.trainer = TrainingCluster(model, self.store)
        for _ in range(scale.pretrain_steps):
            self.trainer.train_on(self.stream.next_batch(PRETRAIN_BATCH))
        # Store fill: the plane holds the whole model, as in production.
        model.embeddings.reset_touched()
        for f, table in enumerate(model.embeddings):
            self.trainer.client.stage(
                f"table_{f}", np.arange(table.num_rows, dtype=np.int64), table.weight
            )
        self.trainer.client.flush()
        self.trainer.client.push_log.clear()
        self.fill_replica_rows = sum(s.rows_written for s in self.store.shard_stats)
        self.nodes = [
            InferenceNode(model.copy(), self.store, node_id=k)
            for k in range(self.NODES)
        ]
        self.touched = [
            np.zeros(table.num_rows, dtype=bool) for table in model.embeddings
        ]
        self.labels: list[np.ndarray] = []
        self.probs: list[np.ndarray] = []
        self.modelled_s: list[float] = []
        self.bytes_moved: list[float] = []
        self.compacted = 0

    def patch(self, rec: SpanRecorder) -> None:
        rec.patch(self.trainer, "train_on", "cluster.nodes.train_on")
        rec.patch(self.trainer.model, "train_step", "dlrm.train_step")
        rec.patch(self.trainer, "publish_changed_rows", "cluster.nodes.publish")
        for node in self.nodes:
            rec.patch(node, "pull_updates", "cluster.nodes.apply")
            rec.patch(node, "predict", "dlrm.predict")
        _patch_plane(
            rec, self.store, [self.trainer.client] + [n.client for n in self.nodes]
        )

    def run(self, iterations: int, rec: SpanRecorder) -> None:
        scale, stream, trainer, nodes = self.scale, self.stream, self.trainer, self.nodes
        tables = trainer.model.embeddings
        token = self._begin()
        clock = self.clock
        for w in range(iterations):
            rec.iteration = w
            if w and w % scale.drift_every == 0:
                stream.advance(scale.drift_every * WORLD_S_PER_ITERATION)
            train = [stream.next_batch(self.TRAIN_BATCH) for _ in range(self.TRAIN_STEPS)]
            serve = [stream.next_batch(self.SERVE_BATCH) for _ in nodes]
            clock.resume(token)
            start = clock.now()
            for batch in train:
                trainer.train_on(batch)
            token = clock.pause()
            for mask, table in zip(self.touched, tables):
                mask[table.touched_rows()] = True
            clock.resume(token)
            update_start = clock.now()
            push = trainer.publish_changed_rows()
            pulls = [node.pull_updates() for node in nodes]
            fresh = clock.now()
            probs = [node.predict(batch) for node, batch in zip(nodes, serve)]
            if (w + 1) % scale.compact_every == 0:
                self.compacted += self.store.compact()
            end = clock.now()
            token = clock.pause()
            self.update_s.append(fresh - update_start)
            self.busy_s.append(end - start)
            self.modelled_s.append(
                push.transfer_seconds + max(p.transfer_seconds for p in pulls)
            )
            self.bytes_moved.append(
                float(push.bytes_pushed + sum(p.bytes_pulled for p in pulls))
            )
            self.operations += 1
            self.failed_operations += int(
                any(p.degraded for p in pulls)
                or not all(np.isfinite(p).all() for p in probs)
            )
            self.labels.append(serve[0].labels)
            self.probs.append(probs[0])
        clock.resume(token)

    def finish(self) -> Outcome:
        trainer, nodes, store = self.trainer, self.nodes, self.store
        for node in nodes:
            self.check(
                node.staleness_versions() == 0,
                f"node {node.node_id} is {node.staleness_versions()} versions stale",
            )
            for f, mask in enumerate(self.touched):
                ids = np.flatnonzero(mask)
                same = np.array_equal(
                    node.model.embeddings[f].weight[ids],
                    trainer.model.embeddings[f].weight[ids],
                )
                self.check(same, f"node {node.node_id} table_{f} differs from the trainer")
        windows = len(self.busy_s)
        served = windows * self.NODES * self.SERVE_BATCH
        pull_logs = [r for node in nodes for r in node.client.pull_log]
        metrics = {
            "paper.auc": _windowed_auc(self.labels, self.probs),
            "paper.update_modelled_ms": float(np.mean(_ms(self.modelled_s))),
            "paper.update_bytes": float(np.mean(self.bytes_moved)),
            "dlrm.predict_samples": float(served),
            "dlrm.train_samples": float(windows * self.TRAIN_STEPS * self.TRAIN_BATCH),
            "cluster.nodes.rows_applied": float(
                sum(r.rows_pulled for node in nodes for r in node.pull_log)
            ),
            "cluster.nodes.staleness_versions": float(
                max(node.staleness_versions() for node in nodes)
            ),
            "cluster.shardstore.store.publish_replica_rows": float(
                sum(s.rows_written for s in store.shard_stats)
            )
            - self.fill_replica_rows,
            "cluster.shardstore.store.pull_delta_rows": float(
                sum(r.rows for r in pull_logs)
            ),
            "cluster.shardstore.store.compacted_entries": float(self.compacted),
            "cluster.shardstore.store.total_bytes": float(store.total_bytes),
        }
        metrics.update(
            _transfer_metrics("cluster.shardstore.client.flush", trainer.client.push_log)
        )
        metrics.update(_transfer_metrics("cluster.shardstore.client.pull", pull_logs))
        return self._outcome(metrics, samples=served)


class FleetSync(Workload):
    """Closed loop: four LoRA ranks train and sync through the store, eight
    observers pull the merged rows through the resilient client while one
    shard answers 20x slow."""

    name = "fleet_sync"
    RANKS = 4
    LOCAL_STEPS = 2
    BATCH = 512
    OBSERVERS = 8
    LORA_RANK = 8
    WARM_SHARE = 32 / 250
    SLOW_FACTOR = 20.0

    def __init__(self, seed: int, scale: Scale) -> None:
        super().__init__(seed, scale)
        self.stream, base = _pretrained_world(seed, scale)
        self.base = base
        # The ranks share one frozen base: only their adapters differ.
        self.trainers = [
            LoRATrainer(
                base,
                InferenceLogBuffer(600.0),
                TrainerConfig(rank=self.LORA_RANK, dynamic_rank=False, seed=seed + r),
            )
            for r in range(self.RANKS)
        ]
        self.store = ShardedParameterStore(
            num_shards=NUM_REPLICAS, replication=3, row_bytes=None,
            row_dim=self.LORA_RANK,
        )
        self.sync = SparseLoRASynchronizer(self.trainers, store=self.store)
        self.slow_shard = int(self.rng.integers(NUM_REPLICAS))
        self.plane = FaultPlane(
            self.store,
            FaultSchedule(
                [FaultEvent(1.0, "slow_node", self.slow_shard, factor=self.SLOW_FACTOR)]
            ),
        )
        self.observers = [
            ShardClient(self.store, resilience=ResiliencePolicy(), faults=self.plane)
            for _ in range(self.OBSERVERS)
        ]
        self.tables = [f"lora_a/{f}" for f in range(len(scale.table_sizes))]
        self.modelled_s: list[float] = []
        self.bytes_moved: list[float] = []
        self.pull_after_fault_s: list[float] = []
        self.mismatched_rounds = 0
        self.held_rows = 0

    def patch(self, rec: SpanRecorder) -> None:
        rec.patch(self.sync, "local_step", "core.sync.local_step")
        rec.patch(self.sync, "sync", "core.sync.sync")
        for trainer in self.trainers:
            rec.patch(trainer, "train_on", "core.trainer.step")
        _patch_plane(rec, self.store, [self.sync.store_client] + self.observers)

    def run(self, iterations: int, rec: SpanRecorder) -> None:
        stream, sync, observers, tables = self.stream, self.sync, self.observers, self.tables
        warm = max(1, round(iterations * self.WARM_SHARE))
        rank0 = self.trainers[0].lora
        token = self._begin()
        clock = self.clock
        for r in range(iterations):
            rec.iteration = r
            if r == warm:
                self.plane.advance_to(1.0)
            batches = [
                stream.next_batch(self.BATCH, local=True)
                for _ in range(self.RANKS * self.LOCAL_STEPS)
            ]
            clock.resume(token)
            start = clock.now()
            for k, batch in enumerate(batches):
                sync.local_step(
                    k // self.LOCAL_STEPS, batch.dense, batch.sparse_ids, batch.labels
                )
            update_start = clock.now()
            report = sync.sync()
            pulled = [client.pull_tables(tables) for client in observers]
            end = clock.now()
            token = clock.pause()
            self.update_s.append(end - update_start)
            self.busy_s.append(end - start)
            publish = sync.publish_reports[-1]
            pull_s = [transfer.seconds for _, transfer in pulled]
            self.modelled_s.append(report.total_seconds + publish.seconds + max(pull_s))
            self.bytes_moved.append(
                report.bytes_exchanged
                + publish.bytes
                + sum(transfer.bytes for _, transfer in pulled)
            )
            if r >= warm:
                self.pull_after_fault_s.extend(pull_s)
            self.operations += 1 + len(pulled)
            self.failed_operations += sum(t.degraded for _, t in pulled)
            # Every observer saw the same rows, and they are the rows rank 0
            # holds after the merge.  An adapter at capacity skips ids it has
            # no slot for, so rank 0 is compared on the ids it does hold.
            first = pulled[0][0]
            ok = True
            for f, table in enumerate(tables):
                ids, rows = first[table]
                held_ids, held = rank0[f].gather_rows(ids)
                ok = ok and np.array_equal(held, rows[np.isin(ids, held_ids)])
                self.held_rows += held_ids.size
                for deltas, _ in pulled[1:]:
                    ok = (
                        ok
                        and np.array_equal(deltas[table][0], ids)
                        and np.array_equal(deltas[table][1], rows)
                    )
            self.mismatched_rounds += int(not ok)
        clock.resume(token)

    def finish(self) -> Outcome:
        sync = self.sync
        self.check(
            self.mismatched_rounds == 0,
            f"{self.mismatched_rounds} rounds where an observer's rows differ "
            "from rank 0's",
        )
        self.check(self.held_rows > 0, "rank 0 held none of the published rows")
        # Not 0 by design once an adapter is at capacity: ranks skip
        # different ids, so it is reported, and only checked to be finite.
        divergence = max(
            sync.replica_divergence(f) for f in range(len(self.tables))
        )
        self.check(bool(np.isfinite(divergence)), f"replica divergence {divergence}")
        self.check(bool(self.plane.injected), "the slow_node fault never fired")
        pulls = [r for client in self.observers for r in client.pull_log]
        attempts = sum(r.attempts for r in pulls)
        adapter_bytes = np.mean([t.memory_bytes() for t in self.trainers])
        steps = [t.report for t in self.trainers]
        rounds = len(self.busy_s)
        metrics = {
            "paper.update_modelled_ms": float(np.mean(_ms(self.modelled_s))),
            "paper.update_bytes": float(np.mean(self.bytes_moved)),
            "paper.pull_modelled_p99_ms": float(
                np.percentile(_ms(self.pull_after_fault_s), 99)
            ),
            "paper.adapter_mem_pct": float(adapter_bytes)
            / self.base.embedding_bytes
            * 100.0,
            "core.lora.overlay_ids": float(
                len(self.tables) * sum(s.samples_seen for s in steps)
            ),
            "core.lora.active_rows": float(self.trainers[0].lora.num_active),
            "core.trainer.steps": float(sum(s.steps for s in steps)),
            "core.trainer.rows_updated": float(sum(s.rows_updated for s in steps)),
            "core.trainer.rank_changes": float(sum(s.rank_changes for s in steps)),
            "core.trainer.prune_events": float(sum(s.prune_events for s in steps)),
            "core.sync.merged_rows": float(sum(r.merged_rows for r in sync.reports)),
            "core.sync.bytes_exchanged": float(
                sum(r.bytes_exchanged for r in sync.reports)
            ),
            "core.sync.modelled_s": float(sum(r.total_seconds for r in sync.reports)),
            "core.sync.divergence": float(divergence),
            "cluster.shardstore.store.publish_replica_rows": float(
                sum(s.rows_written for s in self.store.shard_stats)
            ),
            "cluster.shardstore.store.pull_delta_rows": float(
                sum(r.rows for r in pulls)
            ),
            "cluster.shardstore.store.total_bytes": float(self.store.total_bytes),
            "cluster.resilience.attempts": float(attempts),
            "cluster.resilience.hedges": float(sum(r.hedges for r in pulls)),
            "cluster.resilience.retries": float(sum(r.retries for r in pulls)),
            "cluster.resilience.degraded_reads": float(
                sum(r.degraded for r in pulls)
            ),
            # one RPC per shard answers a pull; hedges and retries are extra
            "cluster.resilience.useful_attempt_ratio": len(pulls)
            * self.store.num_shards
            / attempts,
        }
        metrics.update(
            _transfer_metrics(
                "cluster.shardstore.client.flush", sync.store_client.push_log
            )
        )
        metrics.update(_transfer_metrics("cluster.shardstore.client.pull", pulls))
        return self._outcome(
            metrics, samples=rounds * self.RANKS * self.LOCAL_STEPS * self.BATCH
        )


class ColoWindow(Workload):
    """Closed loop over the simulated colocated node: route a window of
    request keys, size the window from replica 0's share, simulate it."""

    name = "colo_window"
    LOOKUPS_PER_REQUEST = 8
    LRU_EVERY = 4
    SLA_MS = 10.0

    def __init__(self, seed: int, scale: Scale) -> None:
        super().__init__(seed, scale)
        self.router = self._router()
        self.sim = self._simulator("interval")
        self.sim_lru = self._simulator("lru")
        self.monitor = SLAMonitor(p99_target_ms=self.SLA_MS, window_requests=4)
        # Reference for the replay check: the first window on a same-seed
        # world of its own.  A pure simulator speed-up must leave every
        # modelled statistic of it identical.
        self.first_keys = self._keys()
        reference_sim = self._simulator("interval")
        _, _, only = self._window(self._router(), reference_sim, self.first_keys)
        self.reference = (only, reference_sim.run_colocated_full())
        self.only: list = []
        self.full: list = []
        self.lru: list = []
        self.replica_load = np.zeros(NUM_REPLICAS, dtype=np.int64)
        self.rec: SpanRecorder | None = None

    def _keys(self) -> np.ndarray:
        return self.rng.integers(0, 1 << 62, size=self.scale.route_keys)

    def _router(self) -> ConsistentHashRouter:
        # Fixed ring (see LiveServe): replica 0's share sizes the window.
        return ConsistentHashRouter(list(range(NUM_REPLICAS)))

    def _simulator(self, policy: str) -> ColocatedNodeSimulator:
        return ColocatedNodeSimulator(
            NodeSimConfig(
                num_rows=self.scale.sim_rows, cache_policy=policy, seed=self.seed
            )
        )

    def patch(self, rec: SpanRecorder) -> None:
        self.rec = rec  # finish() reads the cache spans' key counts
        rec.patch(self.router, "route", "serving.router.route")
        for sim in (self.sim, self.sim_lru):
            rec.patch(sim, "run_inference_only", "serving.engine.window")
            rec.patch(sim, "run_colocated_full", "serving.engine.window")
        rec.patch(self.monitor, "observe", "serving.qos.observe")
        # The simulator builds its caches per window, so these two are
        # wrapped on the class; rec.restore() puts them back after the run.
        for cache in (BatchLRUCache, IntervalCache):
            rec.patch(
                cache,
                "access_many",
                "hardware.vectorcache.access",
                work=lambda cache_self, keys, *args, **kwargs: len(keys),
            )

    def _window(self, router, sim, keys):
        """Route one window and simulate it without and with the trainer."""
        replicas = router.route(keys)
        router.reset_window()
        share = int(np.count_nonzero(replicas == 0))
        sim.config.accesses_per_window = share * self.LOOKUPS_PER_REQUEST
        only = sim.run_inference_only()
        return replicas, share, only

    def run(self, iterations: int, rec: SpanRecorder) -> None:
        router, sim, sim_lru = self.router, self.sim, self.sim_lru
        token = self._begin()
        clock = self.clock
        for i in range(iterations):
            rec.iteration = i
            keys = self._keys() if i else self.first_keys
            clock.resume(token)
            start = clock.now()
            replicas, share, only = self._window(router, sim, keys)
            update_start = clock.now()
            full = sim.run_colocated_full()
            self.update_s.append(clock.now() - update_start)
            if i % self.LRU_EVERY == self.LRU_EVERY - 1:
                sim_lru.config.accesses_per_window = share * self.LOOKUPS_PER_REQUEST
                self.lru.append(sim_lru.run_colocated_full())
            self.monitor.observe(np.array([full.p99_ms]))
            end = clock.now()
            token = clock.pause()
            self.busy_s.append(end - start)
            self.only.append(only)
            self.full.append(full)
            self.operations += 1
            self.failed_operations += int(
                not (np.isfinite(only.p99_ms) and np.isfinite(full.p99_ms))
            )
            self.replica_load += np.bincount(replicas, minlength=NUM_REPLICAS)
        clock.resume(token)

    def finish(self) -> Outcome:
        only, full = self.reference
        self.check(only == self.only[0], "replayed inference-only window differs")
        self.check(full == self.full[0], "replayed colocated window differs")
        full_p99 = np.array([r.p99_ms for r in self.full])
        only_p99 = np.array([r.p99_ms for r in self.only])
        everything = self.only + self.full + self.lru
        load = self.replica_load
        keys = len(self.busy_s) * self.scale.route_keys
        cache_accesses = (
            self.rec.work_units("hardware.vectorcache.access") if self.rec else 0
        )
        return self._outcome(
            {
                "hardware.vectorcache.accesses": float(cache_accesses),
                "paper.sim_p99_ms": float(np.median(full_p99)),
                "paper.sim_p99_impact_ms": float(np.median(full_p99 - only_p99)),
                "serving.router.keys": float(keys),
                "serving.router.spill_ratio": self.router.stats.spill_ratio,
                "serving.router.imbalance": float(load.max() / load.mean()),
                "serving.engine.accesses": float(
                    sum(r.inference_accesses + r.training_accesses for r in everything)
                ),
                "serving.engine.sim_p50_ms": float(
                    np.median([r.p50_ms for r in self.full])
                ),
                "serving.engine.sim_dram_gbps": float(
                    np.mean([r.memory_traffic_gbps for r in self.full])
                ),
                "hardware.vectorcache.hit_ratio": float(
                    np.mean([r.inference_hit_ratio for r in self.full])
                ),
                "hardware.vectorcache.evictions": float(
                    sum(r.cache_evictions for r in self.lru)
                ),
                "hardware.reuse.reuse_ratio": float(
                    np.mean([r.reuse_ratio for r in self.full])
                ),
                "serving.qos.sla_miss_share": float(np.mean(full_p99 > self.SLA_MS)),
            },
            samples=keys,
        )


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (LiveServe, DeltaSync, FleetSync, ColoWindow)
}

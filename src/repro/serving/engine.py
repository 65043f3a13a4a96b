"""Co-located serving + training node simulator.

Integrates the hardware substrate into one executable model of an inference
node that may also host the LoRA trainer.  Four configurations reproduce the
Fig. 16 ablation:

* ``inference_only``  — no trainer (latency lower bound);
* ``colocated_naive`` — trainer shares the L3 and memory path (w/o Opt);
* ``colocated_sched`` — CCD partitioning isolates the caches (w/ Scheduling);
* ``colocated_full``  — partitioning + shadow-buffer reuse
  (w/ Reuse+Scheduling).

The simulator is deliberately scaled down (table sizes and per-CCD L3 bytes
are laptop-scale) but keeps the *ratios* that drive the mechanism: the
inference hot set fits in the inference partition's L3, and the trainer's
irregular traffic is large enough to thrash a shared cache.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.zipf import ZipfSampler
from ..hardware.cache import CacheStats
from ..hardware.latency import InferenceLatencyModel, percentile
from ..hardware.memory import MemoryBandwidthModel, MemoryTraffic
from ..hardware.numa import AdaptiveNumaPartitioner
from ..hardware.reuse import BatchedShadowReuse
from ..hardware.vectorcache import BatchLRUCache, IntervalCache

__all__ = ["NodeSimConfig", "WindowResult", "ColocatedNodeSimulator"]

MB = 1024 ** 2
# Aggregate embedding fetches per served batch.
LOOKUPS_PER_BATCH = 200_000
# A trainer step fires once every this many inference bursts.
TRAINER_BURST_EVERY = 8
# Bytes per embedding row: the one entry size every simulated cache holds.
ROW_BYTES = 128


@dataclass
class NodeSimConfig:
    """Scaled-down co-location simulation parameters.

    Attributes:
        num_rows: embedding rows on this node's partition.
        accesses_per_window: inference lookups simulated per window.
        cache_policy: L3 model backing the window simulation.
            ``"interval"`` (default) is the CLOCK-style coarse-recency
            approximation — fully vectorized, hits are a conservative
            subset of LRU's, eviction counts unavailable; ``"lru"`` is the
            exact batched LRU (``BatchLRUCache``), bit-equal to the seed
            per-key simulation and the mode that reports eviction churn.
        seed: RNG seed.
    """

    num_rows: int = 200_000
    accesses_per_window: int = 100_000
    cache_policy: str = "interval"
    seed: int = 0


@dataclass
class WindowResult:
    """Metrics of one simulated serving window.

    The access/eviction counters were added with the batched cache engine:
    ``inference_accesses`` / ``training_accesses`` count simulated cache
    touches per stream, and ``cache_evictions`` counts L3 lines displaced
    across the window's caches — the churn observable the freshness and
    memory experiments consume.
    """

    config_name: str
    inference_hit_ratio: float
    training_hit_ratio: float
    reuse_ratio: float
    memory_traffic_gbps: float
    memory_utilization: float
    p50_ms: float
    p99_ms: float
    inference_accesses: int = 0
    training_accesses: int = 0
    cache_evictions: int = 0


class ColocatedNodeSimulator:
    """Runs serving windows under different isolation configurations."""

    def __init__(self, config: NodeSimConfig | None = None) -> None:
        self.config = config or NodeSimConfig()
        cfg = self.config
        self._rng = np.random.default_rng(cfg.seed)
        self._inference_sampler = ZipfSampler(
            cfg.num_rows,
            0.9,
            rng=np.random.default_rng(cfg.seed + 1),
            method="alias",
        )
        # Trainer lookups are flatter: uniform sampling over the retention
        # window revisits cold ids far more often.
        self._training_sampler = ZipfSampler(
            cfg.num_rows,
            0.15,
            rng=np.random.default_rng(cfg.seed + 2),
            method="alias",
        )
        # The serving path's bandwidth share on its NUMA domain: the
        # contended resource.
        self.memory = MemoryBandwidthModel(peak_gbps=60.0)
        self.latency = InferenceLatencyModel(
            memory=self.memory,
            lookups_per_query=LOOKUPS_PER_BATCH,
            seed=cfg.seed,
        )

    # ------------------------------------------------------------- plumbing
    def _make_cache(
        self, capacity_bytes: int, universe: int
    ) -> BatchLRUCache | IntervalCache:
        """One L3 slice under the configured cache policy."""
        policy = self.config.cache_policy
        if policy == "lru":
            return BatchLRUCache(capacity_bytes, universe=universe)
        if policy == "interval":
            return IntervalCache(capacity_bytes, universe=universe)
        raise ValueError(f"unknown cache_policy {policy!r}")

    def _partition_l3(
        self, inference_ccds: int, training_ccds: int
    ) -> tuple[int, int]:
        # Simulated L3 slice, scaled so the hot set of a Zipf-skewed table
        # occupies a few CCDs, like production.
        per = int(0.25 * MB)
        return inference_ccds * per, training_ccds * per

    def _trainer_streams(self, inf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Draw the (trainer-read, trainer-write) access streams.

        Only a window with the trainer on draws them, so a window without
        it leaves ``self._rng`` and the training sampler where they were.
        Trainer *reads* re-visit ids the server recently looked up (the ring
        buffer holds served traffic), so they alias with inference rows —
        that aliasing is what the shadow buffer exploits.  Trainer *writes*
        (gradient rows, optimizer accumulators, LoRA slots) are private
        state with a flat, wide footprint — the cache polluter.
        """
        # the trainer touches 12 rows per served lookup, 40 % of them reads
        n_train = int(self.config.accesses_per_window * 12.0)
        n_read = int(n_train * 0.4)
        reads = self._rng.choice(inf, size=n_read, replace=True)
        writes = self._training_sampler.sample(n_train - n_read)
        return reads, writes

    def _traffic(
        self,
        inf_hit: float,
        train_hit: float,
        training_on: bool,
        reuse_ratio: float = 0.0,
    ) -> MemoryTraffic:
        # 2,000 served batches/s; the trainer reads 50,000 samples/s at
        # 320 lookups each, half of its traffic writes
        traffic = MemoryBandwidthModel.inference_traffic(
            2_000.0, LOOKUPS_PER_BATCH, ROW_BYTES, inf_hit
        )
        if training_on:
            effective_rate = 50_000.0 * (1.0 - reuse_ratio)
            traffic = traffic + MemoryBandwidthModel.training_traffic(
                effective_rate, 320, ROW_BYTES, train_hit, write_fraction=0.5
            )
        return traffic

    def _result(
        self,
        name: str,
        inf_stats: CacheStats,
        train_stats: CacheStats | None,
        training_on: bool,
        reuse_ratio: float = 0.0,
        remote_fraction: float = 0.0,
        evictions: int = 0,
    ) -> WindowResult:
        """One window's result, from 20,000 sampled request latencies."""
        inf_hit = inf_stats.hit_ratio
        train_hit = train_stats.hit_ratio if train_stats else 0.0
        traffic = self._traffic(inf_hit, train_hit, training_on, reuse_ratio)
        samples = self.latency.sample_latencies(
            20_000, inf_hit, traffic, remote_fraction
        )
        return WindowResult(
            config_name=name,
            inference_hit_ratio=inf_hit,
            training_hit_ratio=train_hit,
            reuse_ratio=reuse_ratio,
            memory_traffic_gbps=traffic.total_gbps,
            memory_utilization=self.memory.utilization(traffic),
            p50_ms=percentile(samples, 50),
            p99_ms=percentile(samples, 99),
            inference_accesses=inf_stats.accesses,
            training_accesses=train_stats.accesses if train_stats else 0,
            cache_evictions=evictions,
        )

    # ------------------------------------------------------------ simulation
    def _run_window(
        self,
        name: str,
        training_on: bool,
        shared_cache: bool,
        reuse: bool,
        inference_ccds: int,
        training_ccds: int,
        remote_fraction: float = 0.0,
    ) -> WindowResult:
        """Batched cache simulation of one serving window.

        The whole window runs as gather/scatter passes over
        :class:`~repro.hardware.vectorcache.BatchLRUCache` — one
        ``access_many`` per cache — instead of a Python loop per key.
        Partitioned caches never interact, so each consumes its own stream
        whole; only the shadow buffer couples the trainer to inference
        *time*, which :class:`~repro.hardware.reuse.BatchedShadowReuse`
        answers per trainer burst by rolling its LRU frontier over the
        publishes since the previous burst.

        Key spaces mirror the seed's offset scheme bijectively: without
        reuse the trainer copies looked-up rows into its own training
        arena, so even reads of the "same" embedding land on different
        cache lines than the server's — hence trainer reads/writes occupy
        disjoint id ranges (``[0, R)`` / ``[R, 2R)``) of the trainer
        cache's dense universe.
        """
        cfg = self.config
        num_rows = cfg.num_rows
        if shared_cache:
            l3_total, _ = self._partition_l3(inference_ccds + training_ccds, 0)
            cache_inf = self._make_cache(l3_total, 3 * num_rows)
        else:
            l3_inf, l3_train = self._partition_l3(inference_ccds, training_ccds)
            cache_inf = self._make_cache(l3_inf, num_rows)
            # Allocated before the streams: allocated after them, the
            # process's peak RSS crept up window by window (heap layout).
            if training_on:
                cache_train = self._make_cache(max(l3_train, 1), 2 * num_rows)
        inf = self._inference_sampler.sample(cfg.accesses_per_window)
        if training_on:
            reads, writes = self._trainer_streams(inf)
        # Warm the serving cache to steady state: production servers have
        # been running for hours, so first-touch cold misses are not part
        # of the measured window.
        warm = self._inference_sampler.sample(cfg.accesses_per_window)
        cache_inf.access_many(warm, ROW_BYTES)
        if shared_cache and training_on:
            # Naive co-location: trainer threads run *concurrently* with the
            # server on neighbouring cores, so accesses interleave at cache
            # granularity — each inference touch competes with ~ratio
            # trainer insertions, which is what evicts the hot set.
            return self._run_shared_fine(
                name, cache_inf, inf, reads, writes, remote_fraction
            )
        inf_stats, train_stats = CacheStats(), CacheStats()
        evictions = cache_inf.access_many(inf, ROW_BYTES, stats=inf_stats).num_evictions
        absorbed, reuse_ratio = 0, 0.0
        if training_on:
            burst = 256  # lookups per inference burst
            num_bursts = max(1, (len(inf) + burst - 1) // burst)
            # One trainer step is much longer than one served batch: it
            # fires every ``TRAINER_BURST_EVERY`` inference bursts and
            # touches its whole mini-batch footprint at once.
            num_trainer_bursts = max(1, num_bursts // TRAINER_BURST_EVERY)
            read_chunk = (
                len(reads) + num_trainer_bursts - 1
            ) // num_trainer_bursts
            write_chunk = (
                len(writes) + num_trainer_bursts - 1
            ) // num_trainer_bursts
            fired = num_bursts // TRAINER_BURST_EVERY
            shadow = (
                # a 40,000-row shadow buffer
                BatchedShadowReuse(np.concatenate([warm, inf]), 40_000)
                if reuse
                else None
            )
            pieces: list[np.ndarray] = []
            for t in range(fired):
                step_reads = reads[t * read_chunk : (t + 1) * read_chunk]
                if shadow is not None and step_reads.size:
                    # Shadow state as of the inference burst this trainer
                    # step follows: warm plus every burst published so far.
                    prefix = warm.size + min(
                        inf.size, (t + 1) * TRAINER_BURST_EVERY * burst
                    )
                    mask = shadow.absorbed(prefix, step_reads)
                    hits = int(mask.sum())
                    absorbed += hits
                    train_stats.hits += hits  # reused rows are pinned: hits
                    step_reads = step_reads[~mask]
                pieces.append(step_reads)
                pieces.append(
                    writes[t * write_chunk : (t + 1) * write_chunk] + num_rows
                )
            if pieces:
                evictions += cache_train.access_many(
                    np.concatenate(pieces), ROW_BYTES, stats=train_stats
                ).num_evictions
            n_train = len(reads) + len(writes)
            reuse_ratio = absorbed / n_train if (reuse and n_train) else 0.0
        return self._result(
            name,
            inf_stats,
            train_stats if training_on else None,
            training_on=training_on,
            reuse_ratio=reuse_ratio,
            remote_fraction=remote_fraction,
            evictions=evictions,
        )

    def _run_shared_fine(
        self,
        name: str,
        cache: BatchLRUCache | IntervalCache,
        inf: np.ndarray,
        reads: np.ndarray,
        writes: np.ndarray,
        remote_fraction: float,
    ) -> WindowResult:
        """Per-access interleave of server and trainer over one shared L3.

        The seed walked the three streams with fractional float
        accumulators; the batched version materialises the *exact-rational*
        emission schedule those accumulators approximate — read ``r`` lands
        right after inference access ``ceil((r+1)/rate) - 1`` — so interior
        positions can differ from the seed by one slot where its float
        error crossed an emission boundary (statistically identical, not
        bit-equal).  The merged window then plays through the shared cache
        in a single ``access_many`` pass.
        """
        cfg = self.config
        num_rows = cfg.num_rows
        n_inf, n_r, n_w = len(inf), len(reads), len(writes)
        inf_stats, train_stats = CacheStats(), CacheStats()
        evictions = 0
        if n_inf:
            # Emission schedule in closed form (no sort): within a step the
            # order is inference access, then its reads, then its writes,
            # so every access's output slot is its own index plus the
            # counts of the other two streams emitted before it.
            i_idx = np.arange(n_inf, dtype=np.int64)
            r_idx = np.arange(n_r, dtype=np.int64)
            w_idx = np.arange(n_w, dtype=np.int64)
            # Step after which read r / write w is emitted.
            step_r = ((r_idx + 1) * n_inf + n_r - 1) // max(n_r, 1) - 1
            step_w = ((w_idx + 1) * n_inf + n_w - 1) // max(n_w, 1) - 1
            pos_inf = i_idx + (i_idx * n_r) // n_inf + (i_idx * n_w) // n_inf
            pos_r = (step_r + 1) + r_idx + (step_r * n_w) // n_inf
            pos_w = (step_w + 1) + ((step_w + 1) * n_r) // n_inf + w_idx
            total = n_inf + n_r + n_w
            merged = np.empty(total, dtype=np.int64)
            merged[pos_inf] = inf
            merged[pos_r] = reads + num_rows
            merged[pos_w] = writes + 2 * num_rows
            is_inf = np.zeros(total, dtype=bool)
            is_inf[pos_inf] = True
            result = cache.access_many(merged, ROW_BYTES)
            evictions = result.num_evictions
            inf_mask = result.hit_mask[is_inf]
            train_mask = result.hit_mask[~is_inf]
            inf_stats = CacheStats(
                int(inf_mask.sum()), int(inf_mask.size - inf_mask.sum())
            )
            train_stats = CacheStats(
                int(train_mask.sum()), int(train_mask.size - train_mask.sum())
            )
        return self._result(
            name,
            inf_stats,
            train_stats,
            training_on=True,
            remote_fraction=remote_fraction,
            evictions=evictions,
        )

    # --------------------------------------------------------------- configs
    def run_inference_only(self, total_ccds: int = 12) -> WindowResult:
        """Lower bound: the whole L3 allocation serves inference."""
        return self._run_window(
            "inference_only",
            training_on=False,
            shared_cache=False,
            reuse=False,
            inference_ccds=total_ccds,
            training_ccds=0,
        )

    def run_colocated_naive(self) -> WindowResult:
        """w/o Opt: trainer and server share one 12-CCD cache domain, and
        trainer pages are not NUMA-local (remote-socket penalty applies)."""
        return self._run_window(
            "colocated_naive",
            training_on=True,
            shared_cache=True,
            reuse=False,
            inference_ccds=12,
            training_ccds=0,
            # without NUMA-aware allocation, half the DRAM accesses land
            # on the remote socket
            remote_fraction=0.5,
        )

    def run_colocated_scheduled(
        self, inference_ccds: int = 10, training_ccds: int = 2
    ) -> WindowResult:
        """w/ Scheduling: disjoint CCD partitions, separate caches."""
        return self._run_window(
            "colocated_scheduled",
            training_on=True,
            shared_cache=False,
            reuse=False,
            inference_ccds=inference_ccds,
            training_ccds=training_ccds,
        )

    def run_colocated_full(self) -> WindowResult:
        """w/ Reuse+Scheduling: the 10/2-CCD partition plus shadow-buffer
        reuse.

        Trainer reads first consult the shadow buffer of rows the server
        already fetched; only the remainder touches the training cache and
        DRAM.  Reused rows count as training cache hits — they are reads
        from pinned, cache-resident memory.
        """
        return self._run_window(
            "colocated_full",
            training_on=True,
            shared_cache=False,
            reuse=True,
            inference_ccds=10,
            training_ccds=2,
        )

    # ------------------------------------------------------------- ablation
    def ablation(self) -> dict[str, WindowResult]:
        """All four Fig. 16 configurations with a fresh simulator state."""
        return {
            "Only Infer": self.run_inference_only(),
            "w/o Opt": self.run_colocated_naive(),
            "w/ Scheduling": self.run_colocated_scheduled(),
            "w/ Reuse+Scheduling": self.run_colocated_full(),
        }

    def run_adaptive(
        self, partitioner: AdaptiveNumaPartitioner, cycles: int = 10
    ) -> list[WindowResult]:
        """Closed-loop Algorithm 2 over this simulator."""
        results = []
        for _ in range(cycles):
            state = partitioner.state
            if state.num_training:
                result = self.run_colocated_scheduled(
                    state.num_inference, state.num_training
                )
            else:
                # Nothing granted to training this cycle: serve inference
                # only instead of simulating a degenerate 1-byte trainer
                # cache.
                result = self.run_inference_only(state.num_inference)
            results.append(result)
            partitioner.observe(result.p99_ms)
        return results

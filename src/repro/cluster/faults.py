"""Deterministic fault injection for the parameter plane.

Chaos testing only earns its keep when a failing run can be replayed
bit-for-bit, so everything here is driven by explicit state, never wall
time or unseeded randomness: a :class:`FaultSchedule` is a sorted list of
:class:`FaultEvent` timestamps on the *simulated* clock, generated — when
randomized — from a seeded ``numpy`` generator, and a :class:`FaultPlane`
binds one schedule to one :class:`~repro.cluster.shardstore.store.\
ShardedParameterStore`, dispatching each event exactly once as simulated
time passes its timestamp.

Seven event kinds cover the failure modes the replication protocol
promises to survive (and the ones it promises to *refuse* loudly):

``kill``
    The shard stops answering: publishes skip it (quorum accounting
    notices), reads fail over to its replica peers.
``revive``
    The shard returns with whatever (stale) rows it held at kill time;
    :meth:`~repro.cluster.shardstore.store.ShardedParameterStore.repair`
    reconverges it.
``drop_publish``
    The shard silently fails to apply its next publish — a lost message
    rather than a dead node.  Same ledger, same quorum math.
``delay``
    Multiplies modelled client transfer times (degraded network); a
    factor of 1.0 clears it.
``slow_node``
    One shard answers, but slowly: its modelled RPC latencies are
    multiplied by ``factor`` until a later ``slow_node`` with factor
    1.0 clears it.  The gray-failure mode hedged reads exist for.
``partition``
    One shard is unreachable (requests time out rather than fast-fail)
    for ``duration_s`` simulated seconds, then heals on its own.
``flap``
    The shard bounces: expanded at schedule-build time into alternating
    kill/revive pairs every ``period_s`` over ``duration_s``, always
    ending revived.  Stresses breaker half-open behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["FaultEvent", "FaultSchedule", "FaultPlane"]

_KINDS = (
    "kill",
    "revive",
    "drop_publish",
    "delay",
    "slow_node",
    "partition",
    "flap",
)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    Parameters
    ----------
    at_s : float
        Simulated time the fault fires.
    kind : str
        One of ``kill``, ``revive``, ``drop_publish``, ``delay``,
        ``slow_node``, ``partition``, ``flap``.
    shard_id : int, optional
        Target shard; required for every kind except ``delay``.
    factor : float, optional
        ``delay``/``slow_node`` only: multiplier on modelled transfer
        seconds (>= 1.0; exactly 1.0 restores healthy speed).
    duration_s : float, optional
        ``partition``/``flap`` only: how long the condition lasts
        (must be positive for those kinds).
    period_s : float, optional
        ``flap`` only: length of one kill+revive bounce cycle.
    """

    at_s: float
    kind: str
    shard_id: int | None = None
    factor: float = 1.0
    duration_s: float = 0.0
    period_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.kind != "delay" and self.shard_id is None:
            raise ValueError(f"{self.kind} fault needs a shard_id")
        if self.kind in ("delay", "slow_node") and self.factor < 1.0:
            raise ValueError(f"{self.kind} factor must be >= 1.0")
        if self.kind in ("partition", "flap") and self.duration_s <= 0.0:
            raise ValueError(f"{self.kind} fault needs duration_s > 0")
        if self.kind == "flap" and self.period_s <= 0.0:
            raise ValueError("flap fault needs period_s > 0")


def _expand_flap(event: FaultEvent) -> list[FaultEvent]:
    """Expand one ``flap`` into its alternating kill/revive bounces.

    Each ``period_s`` cycle is half down, half up; the expansion always
    ends with a revive, so a flapping shard is healthy once the fault
    window closes (the half-open breaker probes are what get stressed,
    not the final state).
    """
    out: list[FaultEvent] = []
    start = float(event.at_s)
    end = start + float(event.duration_s)
    t = start
    while t < end:
        out.append(FaultEvent(t, "kill", event.shard_id))
        out.append(
            FaultEvent(min(t + event.period_s / 2.0, end), "revive", event.shard_id)
        )
        t += float(event.period_s)
    return out


@dataclass
class FaultSchedule:
    """A time-sorted list of faults, replayable bit-for-bit.

    Build one by hand for targeted regression tests, or with
    :meth:`random` for seeded chaos sweeps.  Iterating via :meth:`due`
    consumes events as simulated time passes them.
    """

    events: list[FaultEvent] = field(default_factory=list)
    _cursor: int = 0

    def __post_init__(self) -> None:
        expanded: list[FaultEvent] = []
        for event in self.events:
            if event.kind == "flap":
                expanded.extend(_expand_flap(event))
            else:
                expanded.append(event)
        # Stable sort: identical-timestamp events keep insertion order,
        # which the chaos suites pin as part of replay determinism.
        self.events = sorted(expanded, key=lambda e: e.at_s)

    @property
    def remaining(self) -> int:
        """Events not yet consumed by :meth:`due`."""
        return len(self.events) - self._cursor

    def due(self, now_s: float) -> list[FaultEvent]:
        """Consume and return every event with ``at_s <= now_s``.

        Monotone: each event is returned exactly once however often the
        caller polls, so a :class:`FaultPlane` can poll after every
        window without double-killing a shard.
        """
        start = self._cursor
        while (
            self._cursor < len(self.events)
            and self.events[self._cursor].at_s <= now_s
        ):
            self._cursor += 1
        return self.events[start : self._cursor]

    @classmethod
    def random(
        cls,
        seed: int,
        shard_ids: list[int],
        horizon_s: float = 60.0,
        kills: int = 2,
        drops: int = 2,
        delays: int = 1,
        max_concurrent_down: int = 1,
        outage_s: float = 5.0,
    ) -> "FaultSchedule":
        """Seeded random schedule: same seed, same faults, every run.

        Each kill is paired with a revive ``outage_s`` later, and kills
        are spread so at most ``max_concurrent_down`` shards are ever
        down at once — chaos suites pick ``max_concurrent_down`` below
        the store's quorum slack so every publish must still succeed,
        turning "no acked loss" into an assertable invariant.

        Parameters
        ----------
        seed : int
            Generator seed; the only source of randomness.
        shard_ids : list of int
            Shards eligible for faults.
        horizon_s : float, optional
            Events land in ``[0, horizon_s)``.
        kills : int, optional
            Kill/revive pairs to schedule.
        drops : int, optional
            ``drop_publish`` events to schedule.
        delays : int, optional
            ``delay`` events (each paired with a reset to 1.0).
        max_concurrent_down : int, optional
            Upper bound on simultaneously-down shards.
        outage_s : float, optional
            Kill-to-revive gap.
        """
        if not shard_ids:
            raise ValueError("need at least one shard id")
        if max_concurrent_down < 1:
            raise ValueError("max_concurrent_down must be >= 1")
        rng = np.random.default_rng(seed)
        events: list[FaultEvent] = []
        # Kills start on a per-lane cadence: lane k's outages are disjoint
        # in time, and with `max_concurrent_down` lanes no more than that
        # many shards are down together.
        lane_span = outage_s * 2.0
        for i in range(kills):
            cycle = i // max_concurrent_down
            base = cycle * lane_span
            if base + outage_s >= horizon_s:
                break
            start = base + float(rng.uniform(0.0, outage_s))
            sid = int(shard_ids[int(rng.integers(len(shard_ids)))])
            events.append(FaultEvent(start, "kill", sid))
            events.append(
                FaultEvent(min(start + outage_s, horizon_s), "revive", sid)
            )
        for _ in range(drops):
            at = float(rng.uniform(0.0, horizon_s))
            sid = int(shard_ids[int(rng.integers(len(shard_ids)))])
            events.append(FaultEvent(at, "drop_publish", sid))
        for _ in range(delays):
            at = float(rng.uniform(0.0, horizon_s * 0.8))
            factor = float(rng.uniform(1.5, 4.0))
            events.append(FaultEvent(at, "delay", factor=factor))
            events.append(
                FaultEvent(
                    min(at + outage_s, horizon_s), "delay", factor=1.0
                )
            )
        schedule = cls(events)
        schedule._enforce_lanes(max_concurrent_down)
        return schedule

    def _enforce_lanes(self, max_concurrent_down: int) -> None:
        """Drop kill/revive pairs that would exceed the concurrency bound
        or double-kill an already-down shard (random draws can collide)."""
        down: set[int] = set()
        dropped: set[int] = set()
        kept: list[FaultEvent] = []
        for i, event in enumerate(self.events):
            if event.kind == "kill":
                sid = event.shard_id
                if sid in down or len(down) >= max_concurrent_down:
                    dropped.add(i)
                    # also drop this kill's paired revive (the next revive
                    # of the same shard while it isn't actually down)
                    for j in range(i + 1, len(self.events)):
                        later = self.events[j]
                        if (
                            later.kind == "revive"
                            and later.shard_id == sid
                            and j not in dropped
                        ):
                            dropped.add(j)
                            break
                    continue
                down.add(sid)
                kept.append(event)
            elif event.kind == "revive":
                if i in dropped:
                    continue
                if event.shard_id not in down:
                    dropped.add(i)
                    continue
                down.discard(event.shard_id)
                kept.append(event)
            else:
                kept.append(event)
        self.events = kept
        self._cursor = 0


class FaultPlane:
    """Binds a :class:`FaultSchedule` to one store; time is driven by
    :meth:`advance_to`.

    Parameters
    ----------
    store : repro.cluster.shardstore.store.ShardedParameterStore
        The store faults act on.
    schedule : FaultSchedule
        What to inject, and when (simulated seconds).
    """

    def __init__(self, store, schedule: FaultSchedule) -> None:
        self.store = store
        self.schedule = schedule
        self.delay_factor = 1.0
        self.now_s = 0.0
        self.injected: list[FaultEvent] = []
        self.skipped: list[FaultEvent] = []
        self._slow: dict[int, float] = {}
        self._partitioned_until: dict[int, float] = {}

    def slow_factor(self, shard_id: int) -> float:
        """Per-shard latency multiplier from active ``slow_node`` faults."""
        return self._slow.get(int(shard_id), 1.0)

    def is_partitioned(self, shard_id: int) -> bool:
        """Whether a ``partition`` fault is still active for this shard."""
        return self.now_s < self._partitioned_until.get(int(shard_id), 0.0)

    def advance_to(self, now_s: float) -> list[FaultEvent]:
        """Inject every event with ``at_s <= now_s``; returns them.

        Events apply in timestamp order, so a kill/revive pair inside one
        poll interval still round-trips through the store (the publishes
        in between were in the past either way).
        """
        self.now_s = max(self.now_s, float(now_s))
        fired = self.schedule.due(now_s)
        for event in fired:
            self._inject(event)
        return fired

    def _inject(self, event: FaultEvent) -> None:
        if event.kind == "kill":
            # Tolerant dispatch: overlapping schedules (e.g. a flap over
            # an already-killed shard) skip rather than raise, and the
            # skip is recorded so tests can assert on it.
            if event.shard_id in self.store.down_shard_ids:
                self.skipped.append(event)
                return
            self.store.kill_shard(event.shard_id)
        elif event.kind == "revive":
            if event.shard_id not in self.store.down_shard_ids:
                self.skipped.append(event)
                return
            self.store.revive_shard(event.shard_id)
        elif event.kind == "drop_publish":
            self.store.arm_publish_drop(event.shard_id)
        elif event.kind == "slow_node":
            if event.factor == 1.0:
                self._slow.pop(int(event.shard_id), None)
            else:
                self._slow[int(event.shard_id)] = float(event.factor)
        elif event.kind == "partition":
            until = float(event.at_s) + float(event.duration_s)
            sid = int(event.shard_id)
            self._partitioned_until[sid] = max(
                self._partitioned_until.get(sid, 0.0), until
            )
        else:
            self.delay_factor = float(event.factor)
        self.injected.append(event)

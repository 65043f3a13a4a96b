"""Deterministic fault injection for the parameter plane.

Chaos testing only earns its keep when a failing run can be replayed
bit-for-bit, so everything here is driven by explicit state, never wall
time or unseeded randomness: a :class:`FaultSchedule` is a sorted list of
:class:`FaultEvent` timestamps on the *simulated* clock (the chaos suites
draw theirs from a seeded ``numpy`` generator), and a :class:`FaultPlane`
binds one schedule to one :class:`~repro.cluster.shardstore.store.\
ShardedParameterStore`, dispatching each event exactly once as simulated
time passes its timestamp.

Five event kinds cover the failure modes the replication protocol
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
"""

from __future__ import annotations

from dataclasses import dataclass, field


__all__ = ["FaultEvent", "FaultSchedule", "FaultPlane"]

_KINDS = ("kill", "revive", "drop_publish", "delay", "slow_node")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    Parameters
    ----------
    at_s : float
        Simulated time the fault fires.
    kind : str
        One of ``kill``, ``revive``, ``drop_publish``, ``delay``,
        ``slow_node``.
    shard_id : int, optional
        Target shard; required for every kind except ``delay``.
    factor : float, optional
        ``delay``/``slow_node`` only: multiplier on modelled transfer
        seconds (>= 1.0; exactly 1.0 restores healthy speed).
    """

    at_s: float
    kind: str
    shard_id: int | None = None
    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.kind != "delay" and self.shard_id is None:
            raise ValueError(f"{self.kind} fault needs a shard_id")
        if self.kind in ("delay", "slow_node") and self.factor < 1.0:
            raise ValueError(f"{self.kind} factor must be >= 1.0")


@dataclass
class FaultSchedule:
    """A time-sorted list of faults, replayable bit-for-bit.

    Iterating via :meth:`due` consumes events as simulated time passes
    them.
    """

    events: list[FaultEvent] = field(default_factory=list)
    _cursor: int = 0

    def __post_init__(self) -> None:
        # Stable sort: identical-timestamp events keep insertion order,
        # which the chaos suites pin as part of replay determinism.
        self.events = sorted(self.events, key=lambda e: e.at_s)

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
        self.injected: list[FaultEvent] = []
        self.skipped: list[FaultEvent] = []
        self._slow: dict[int, float] = {}

    def slow_factor(self, shard_id: int) -> float:
        """Per-shard latency multiplier from active ``slow_node`` faults."""
        return self._slow.get(int(shard_id), 1.0)

    def advance_to(self, now_s: float) -> list[FaultEvent]:
        """Inject every event with ``at_s <= now_s``; returns them.

        Events apply in timestamp order, so a kill/revive pair inside one
        poll interval still round-trips through the store (the publishes
        in between were in the past either way).
        """
        fired = self.schedule.due(now_s)
        for event in fired:
            self._inject(event)
        return fired

    def _inject(self, event: FaultEvent) -> None:
        if event.kind == "kill":
            # Tolerant dispatch: overlapping schedules (e.g. a kill of an
            # already-killed shard) skip rather than raise, and the skip
            # is recorded so tests can assert on it.
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
        else:
            self.delay_factor = float(event.factor)
        self.injected.append(event)

"""Spans and tracers: nested timing off a pluggable clock.

A :class:`Tracer` opens :class:`Span`s as context managers and
timestamps them off whatever clock it holds — a
:class:`~repro.obs.clock.SimClock` inside simulations (deterministic,
host-independent dumps) or a :class:`~repro.obs.clock.WallClock`
(``perf_counter``) when measuring real compute.  Span ids are sequential
integers, parentage follows the lexical nesting of ``with`` blocks, and
:meth:`Tracer.dump_json` serialises with sorted keys and fixed
separators so two processes replaying the same simulated timeline emit
byte-identical traces.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field

from .clock import WallClock
from .metrics import _NAME_RE

__all__ = ["Span", "Tracer"]


@dataclass
class Span:
    """One timed operation on a tracer's clock.

    ``end`` is None while the span is open; ``attrs`` may be filled in
    inside the ``with`` block (row counts, modelled bytes) and is
    serialised with sorted keys.
    """

    name: str
    span_id: int
    parent_id: int | None
    start: float
    end: float | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Seconds between start and end (0.0 while still open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    def as_dict(self) -> dict:
        """JSON-friendly view with attrs in sorted-key order."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "duration_s": self.duration,
            "attrs": {k: self.attrs[k] for k in sorted(self.attrs)},
        }


class _SpanHandle:
    """Context manager that opens a span on enter and closes it on exit."""

    __slots__ = ("_tracer", "_name", "_attrs", "_span")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._span: Span | None = None

    def __enter__(self) -> Span:
        self._span = self._tracer._open(self._name, self._attrs)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self._span.attrs["error"] = exc_type.__name__
        self._tracer._close(self._span)
        return False


class Tracer:
    """Factory and sink for :class:`Span`s.

    Args:
        clock: time source; defaults to a fresh :class:`WallClock`.
            Hand a :class:`~repro.obs.clock.SimClock` to trace simulated
            timelines deterministically.
        recorder: optional :class:`~repro.obs.recorder.FlightRecorder`
            that every completed span is also filed into.

    The last 10,000 completed spans are retained; older ones are dropped.
    """

    def __init__(self, clock=None, recorder=None):
        self.clock = clock if clock is not None else WallClock()
        self.recorder = recorder
        self.spans: deque[Span] = deque(maxlen=10_000)
        self._stack: list[Span] = []
        self._next_id = 1

    def span(self, name: str, **attrs) -> _SpanHandle:
        """Open a named span as a context manager.

        Names follow the metric convention (lowercase dotted literals);
        the ``obs-discipline`` lint rule keeps call sites literal.
        """
        if not _NAME_RE.match(name):
            raise ValueError(
                f"span name {name!r} must be a lowercase dotted identifier"
            )
        return _SpanHandle(self, name, attrs)

    def _open(self, name: str, attrs: dict) -> Span:
        span = Span(
            name=name,
            span_id=self._next_id,
            parent_id=self._stack[-1].span_id if self._stack else None,
            start=self.clock.now(),
            attrs=dict(attrs),
        )
        self._next_id += 1
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        if not self._stack or self._stack[-1] is not span:
            raise RuntimeError("span closed out of nesting order")
        self._stack.pop()
        span.end = self.clock.now()
        self.spans.append(span)
        if self.recorder is not None:
            self.recorder.record_span(span)

    def advance(self, seconds: float) -> None:
        """Advance a simulated clock by a modelled duration.

        No-op when the clock has no ``advance`` (i.e. a wall clock), so
        instrumented code can charge modelled seconds unconditionally.
        """
        advance = getattr(self.clock, "advance", None)
        if advance is not None:
            advance(seconds)

    def dump(self) -> list[dict]:
        """Completed spans as JSON-friendly dicts, completion order."""
        return [s.as_dict() for s in self.spans]

    def dump_json(self) -> str:
        """Canonical serialisation: sorted keys, fixed separators.

        Two processes replaying the same simulated timeline produce
        byte-identical output (the trace-determinism regression test).
        """
        return json.dumps(
            self.dump(), sort_keys=True, separators=(",", ":")
        )

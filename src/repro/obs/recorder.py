"""Flight recorder: bounded per-component event rings for post-mortems.

When something goes wrong, the question is always "what were the last
few things each component did?".  The :class:`FlightRecorder` answers it
with one ``deque(maxlen=N)`` per component: a :class:`~repro.obs.trace.
Tracer` built with ``recorder=`` files every completed span, a caller may
:meth:`~FlightRecorder.record` its own events, memory stays bounded, and
:meth:`~FlightRecorder.dump_text` prints the tail of every ring in
deterministic order.  There is no process-wide recorder: whoever wants
one builds it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

__all__ = ["FlightEvent", "FlightRecorder"]


@dataclass(frozen=True)
class FlightEvent:
    """One recorded moment: a finished span or a notable component event."""

    seq: int
    t: float
    component: str
    kind: str
    message: str
    attrs: tuple[tuple[str, object], ...] = ()

    def as_dict(self) -> dict:
        """JSON-friendly view with attrs expanded to a dict."""
        return {
            "seq": self.seq,
            "t": self.t,
            "component": self.component,
            "kind": self.kind,
            "message": self.message,
            "attrs": dict(self.attrs),
        }


class FlightRecorder:
    """Per-component ring buffers of the last ``capacity`` (256) events;
    older entries fall off the front of that component's ring."""

    def __init__(self) -> None:
        self.capacity = 256
        self._rings: dict[str, deque[FlightEvent]] = {}
        self._seq = 0

    def record(
        self,
        component: str,
        kind: str,
        message: str,
        t: float = 0.0,
        **attrs,
    ) -> FlightEvent:
        """Append one event to ``component``'s ring and return it."""
        self._seq += 1
        event = FlightEvent(
            seq=self._seq,
            t=float(t),
            component=component,
            kind=kind,
            message=message,
            attrs=tuple(sorted(attrs.items())),
        )
        ring = self._rings.get(component)
        if ring is None:
            ring = self._rings[component] = deque(maxlen=self.capacity)
        ring.append(event)
        return event

    def record_span(self, span) -> FlightEvent:
        """Capture a finished :class:`~repro.obs.trace.Span`.

        The component is the span name minus its last segment
        (``shardstore.client.flush`` files under ``shardstore.client``).
        """
        component = span.name.rsplit(".", 1)[0]
        return self.record(
            component,
            "span",
            span.name,
            t=span.start,
            duration_s=span.duration,
            **dict(span.attrs),
        )

    @property
    def components(self) -> list[str]:
        """Component names with at least one recorded event, sorted."""
        return sorted(self._rings)

    def events(self, component: str | None = None) -> list[FlightEvent]:
        """Retained events, oldest first; optionally one component's."""
        if component is not None:
            return list(self._rings.get(component, ()))
        merged = [e for ring in self._rings.values() for e in ring]
        merged.sort(key=lambda e: e.seq)
        return merged

    def dump(self) -> list[dict]:
        """All retained events as JSON-friendly dicts, oldest first."""
        return [e.as_dict() for e in self.events()]

    def dump_text(self) -> str:
        """Human-readable post-mortem: last 10 events per component."""
        lines = []
        for component in self.components:
            lines.append(f"== {component} ==")
            for e in self.events(component)[-10:]:
                detail = " ".join(
                    f"{k}={v}" for k, v in e.attrs
                )
                lines.append(
                    f"  [{e.seq:>5}] t={e.t:.6f} {e.kind}: {e.message}"
                    + (f" ({detail})" if detail else "")
                )
        return "\n".join(lines) if lines else "(flight recorder empty)"

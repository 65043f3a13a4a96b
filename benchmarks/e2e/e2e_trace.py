"""In-memory spans recorded from outside ``src/``, and the harness clock.

The benchmark measures layers by timing calls into their public functions:
:meth:`SpanRecorder.patch` replaces a bound method *on the instance the
benchmark built* (or, for the two cache classes the simulator creates
internally, on the class) with a wrapper that records ``(name, start, end,
parent, iteration)``.  Nothing under ``src/`` is edited, and an untraced
run patches nothing, so end-to-end numbers carry no span cost.

A span's *self time* is its duration minus the part its child spans
cover; summed over every span it equals the time covered by root spans,
which is what ``harness.unattributed_share`` is measured against.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

__all__ = ["HostClock", "SpanRecorder"]


class HostClock:
    """``perf_counter`` time that stands still while the harness works.

    Everything runs in one thread, so input generation, bookkeeping and
    the drifting world's 230 ms step are invisible to the program under
    test as long as they are kept off the clock its latencies are read
    from.  ``harness_s`` is how long the clock stood still.
    """

    def __init__(self) -> None:
        self._origin = perf_counter()
        self.harness_s = 0.0

    def now(self) -> float:
        return perf_counter() - self._origin - self.harness_s

    def pause(self) -> float:
        """Stop the clock; hand the returned token to :meth:`resume`."""
        return perf_counter()

    def resume(self, token: float) -> None:
        self.harness_s += perf_counter() - token


class SpanRecorder:
    """Collects spans from wrapped callables; single-threaded by design."""

    def __init__(self) -> None:
        # (name, start, end, parent index or -1, iteration id, work units)
        self.spans: list[tuple[str, float, float, int, int, int]] = []
        self.iteration = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, bool, object]] = []

    def wrap(self, fn, name: str, work=None):
        """``fn`` with a span named ``name`` around every call.

        ``work(*args, **kwargs)``, when given, counts the units of work
        the call carries (rows, keys), taken at the span's own boundary.
        """
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            units = work(*args, **kwargs) if work is not None else 0
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.iteration, units)

        return traced

    def patch(self, owner, attr: str, name: str, work=None) -> None:
        """Wrap ``owner.attr`` in place; :meth:`restore` puts it back.

        ``owner`` is an instance (the bound method is shadowed on it) or a
        class (the function is replaced for every instance).
        """
        had_own = attr in vars(owner)
        original = getattr(owner, attr)
        self._undo.append((owner, attr, had_own, original))
        setattr(owner, attr, self.wrap(original, name, work))

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._undo:
            owner, attr, had_own, original = self._undo.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------- analysis
    def self_seconds(self) -> dict[str, float]:
        """Self time per span name, in seconds."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _, _), covered in zip(self.spans, child):
            out[name] += (end - start) - covered
        return dict(out)

    def work_units(self, name: str) -> int:
        """Work units carried by every span called ``name``."""
        return sum(span[5] for span in self.spans if span[0] == name)

    def root_seconds(self) -> float:
        """Time covered by spans that have no parent."""
        return sum(
            end - start for _, start, end, parent, _, _ in self.spans if parent < 0
        )

"""In-memory spans around the benchmark's calls into each layer.

A span has a name, the layer it enters, start and end, the span that
caused it and the request it belongs to.  Nothing is written while the
run is timed; :func:`self_times` and :func:`layer_shares` work on the
finished list.  A duration the benchmark cannot bracket itself — one a
layer *reports* about its own inside (``BatchResult.maintain_seconds``)
or one measured by replaying the call on a scratch copy — becomes a
child span tagged ``reported``, so its parent's self time is what the
report leaves over.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from typing import NamedTuple

#: Layer of the span around a workload's timed section; its self time is
#: the wall no layer span covers (loop overhead, idle event loop).
HARNESS = "harness"

#: Layer of spans around harness work that is no part of the workload
#: (capturing values for an oracle, replaying an op on a scratch copy);
#: their time is taken out of the wall the shares are computed against.
UNTIMED = "untimed"


class Span(NamedTuple):
    index: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    request: int | None
    reported: bool

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; one per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[tuple[int, int | None]] = []

    @contextmanager
    def span(self, layer: str, name: str, request: int | None = None,
             parent: int | None = None):
        """Record a span around the ``with`` body; yields its index.

        Spans nest by a stack, which is right for straight-line code.
        Coroutines that interleave pass ``parent`` explicitly instead:
        such a span is not pushed, so a span another coroutine opens
        meanwhile does not become its child.
        """
        index = len(self.spans)
        stacked = parent is None
        if stacked and self._open:
            parent, inherited = self._open[-1]
            if request is None:
                request = inherited
        self.spans.append(None)  # reserve the slot: children index past it
        if stacked:
            self._open.append((index, request))
        start = time.perf_counter()
        try:
            yield index
        finally:
            end = time.perf_counter()
            if stacked:
                self._open.pop()
            self.spans[index] = Span(index, name, layer, start, end, parent, request, False)

    def reported_child(self, parent: int, layer: str, name: str, seconds: float) -> int:
        """A duration known only by its length, laid at the start of its
        parent; self-time accounting needs nothing more."""
        index = len(self.spans)
        start = self.spans[parent].start if self.spans[parent] is not None else 0.0
        self.spans.append(Span(index, name, layer, start, start + max(seconds, 0.0),
                               parent, None, True))
        return index


def span(tracer: "Tracer | None", layer: str, name: str, request: int | None = None):
    """``tracer.span(...)``, or nothing when the run is not traced."""
    return tracer.span(layer, name, request) if tracer else nullcontext()


def untimed(tracer: "Tracer | None", parent: int | None = None):
    """Bracket harness work that is no part of the workload."""
    return tracer.span(UNTIMED, "harness", parent=parent) if tracer else nullcontext()


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part its children cover."""
    own = {s.index: s.seconds for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.seconds
    return {index: max(seconds, 0.0) for index, seconds in own.items()}


def layer_shares(spans: list[Span], roots) -> dict[str, float]:
    """Self time per layer under ``roots``, as a share of their wall.

    The roots' own self time is reported under their layer (the timed
    section's is ``harness``), so the shares sum to one unless reported
    children overran their parents.
    """
    roots = set(roots)
    own = self_times(spans)
    under = set(roots)
    totals: dict[str, float] = {}
    for s in spans:  # parents precede children in the list
        if s.index in roots or s.parent in under:
            under.add(s.index)
            totals[s.layer] = totals.get(s.layer, 0.0) + own[s.index]
    wall = sum(spans[r].seconds for r in roots)
    # Untimed work is a child of what it interrupted: self times already
    # exclude it, the wall must too.
    wall -= sum(s.seconds for s in spans if s.layer == UNTIMED and s.index in under)
    totals.pop(UNTIMED, None)
    if wall <= 0:
        return {}
    return {layer: seconds / wall for layer, seconds in totals.items()}

"""What one workload run measured, before it is reduced to metrics."""

from __future__ import annotations

import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Outcome:
    #: latencies in seconds by kind ("settle", "write", "read", "paste",
    #: "fill", "structural", "full_recalc", "readmit", "open")
    samples: dict[str, list[float]] = field(default_factory=dict)
    #: directly measured values by metric name (``peak_rss_mb`` ...)
    values: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: wall and op count of the whole timed section (for the trace overhead)
    timed_wall: float = 0.0
    timed_ops: int = 0
    #: counts read from public result objects (``source: reported``)
    reported: dict[str, float] = field(default_factory=dict)
    #: the span around the timed section, and the spans whose shares are
    #: reported on their own (settle probes, misses), when traced
    root_span: int | None = None
    settle_spans: list[int] = field(default_factory=list)
    miss_spans: list[int] = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def sample(self, kind: str, seconds: float) -> None:
        self.samples.setdefault(kind, []).append(seconds)

    def check(self, ok: bool, what: str) -> None:
        """Count one oracle check; a mismatch is a failed operation."""
        self.attempted += 1
        if not ok:
            self.fail(what)

    def fail(self, what: str) -> None:
        self.failed += 1
        failures = self.notes.setdefault("failures", [])
        if len(failures) < 20:
            failures.append(what)

    def timed_op(self, kind: str, call, what: str):
        """Run ``call`` as one attempted op, keeping its latency under
        ``kind``; an op that raises has failed and yields ``None``."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # the run goes on; the failure is counted
            self.fail(f"{what}: {exc!r}")
            return None
        self.sample(kind, time.perf_counter() - start)
        return result


@contextmanager
def step(steps: dict[str, float], name: str):
    """Time the ``with`` body as set-up step ``name``."""
    start = time.perf_counter()
    yield
    steps[name] = time.perf_counter() - start


def peak_rss_mb() -> float:
    """High-water resident set of this process, in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

"""Timing utilities with paper-style DNF handling.

Every expensive operation in the evaluation can *did-not-finish* (DNF):
the paper caps graph construction at 300s and RedisGraph queries at 60s
(Sec. VI-D/E).  :func:`measure` runs a callable under a
:class:`~repro.graphs.base.Budget` and reports either the elapsed time or
a DNF marker, which the reporting layer renders as the paper's red X.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import Callable, NamedTuple

from ..bulk import bulk
from ..graphs.base import Budget, DNFError

__all__ = ["Measurement", "measure", "time_call", "best_of"]


class Measurement(NamedTuple):
    """One timed operation: elapsed seconds, DNF flag, and the result."""

    seconds: float
    dnf: bool
    result: object = None
    error: str = ""

    @property
    def millis(self) -> float:
        return self.seconds * 1000.0

    def render(self) -> str:
        if self.dnf:
            return "X (DNF)"
        if self.millis >= 1000:
            return f"{self.seconds:,.2f} s"
        return f"{self.millis:,.2f} ms"


def time_call(fn: Callable[[], object]) -> tuple[float, object]:
    """Single timed call (no budget)."""
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def measure(
    fn: Callable[..., object],
    budget_seconds: float | None = None,
    operation: str = "operation",
    disable_gc: bool = False,
) -> Measurement:
    """Run ``fn`` (optionally passing it a budget) and time it.

    ``fn`` is called as ``fn(budget)`` when a budget is given and the
    callable accepts it, else as ``fn()``.  A raised
    :class:`~repro.graphs.base.DNFError` or :class:`MemoryError` becomes a
    DNF measurement rather than an exception.  ``disable_gc`` runs
    ``fn`` as a bulk build (:func:`repro.bulk.bulk`).
    """
    budget = Budget(budget_seconds, operation) if budget_seconds is not None else None
    start = time.perf_counter()
    try:
        with bulk() if disable_gc else nullcontext():
            result = fn(budget) if budget is not None else fn()
    except DNFError as exc:
        return Measurement(time.perf_counter() - start, True, None, str(exc))
    except MemoryError as exc:
        return Measurement(time.perf_counter() - start, True, None, f"memory: {exc}")
    return Measurement(time.perf_counter() - start, False, result)


def best_of(fn: Callable[[], object], repeats: int = 3) -> Measurement:
    """Minimum-of-N timing for cheap, repeatable operations."""
    best = None
    result = None
    for _ in range(max(1, repeats)):
        elapsed, result = time_call(fn)
        if best is None or elapsed < best:
            best = elapsed
    return Measurement(best, False, result)

"""Bulk builds out of the cycle collector's way.

A build that allocates per dependency or per cell — the column-major
dependency stream, a graph fed that stream, an xlsx part being parsed —
leaves tens of thousands of young container objects behind, and every
one of them is long-lived: graphs, indexes and range sets hold no
reference cycles.  CPython's cycle collector cannot know that.  It
rescans the young generation every 700 allocations and the survivors
up to three times before they reach the oldest generation, and finds
nothing to free.

:func:`bulk` pauses the collector around such a build::

    with bulk():
        deps = list(sheet.iter_dependencies())

    @bulk()
    def build(self, deps): ...

The outermost pause records whether the collector was on and turns it
off; nested pauses, from any thread, only count depth.  The outermost
exit turns it back on, first *promoting* what the pause left behind
when all of these hold:

* the collector was on when the pause began;
* the young generation holds at least ``threshold0 * threshold1``
  objects (:func:`gc.get_threshold`) — the pause deferred at least one
  middle-generation pass, so the survivors are a build's output rather
  than a few temporaries;
* nothing is frozen (:func:`gc.get_freeze_count` is 0), so a caller's
  :func:`gc.freeze` is never thawed;
* the block did not raise.

Promotion is ``gc.freeze(); gc.unfreeze()``: every tracked object moves
to the permanent generation and back into the oldest one, two list
splices in O(1).  A pause that does not promote leaves its objects
young, and the next young-generation pass after it scans them once.

Cyclic garbage made inside a pause is not lost: a promoted cycle waits
for the next full collection, an unpromoted one for the next pass of
its generation, and :func:`gc.collect` reclaims either at once.

The collector is process-global state, so the pause state is too: one
lock guards the depth.  A child forked while a pause is open (a
``ProcessPoolExecutor`` worker on Linux) starts with a fresh lock, depth
0 and the collector as it was before the pause; a pause that was open
across the fork does nothing when it closes in the child.
"""

from __future__ import annotations

import functools
import gc
import os
import threading

__all__ = ["bulk"]


class _Pauses:
    """The process's open pauses: depth, and the collector state the
    outermost one found."""

    __slots__ = ("lock", "depth", "was_enabled", "epoch")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.depth = 0
        self.was_enabled = False
        #: Moves at every fork, in the child: a pause opened before the
        #: fork must not close one that the child opens.
        self.epoch = 0

    def enter(self) -> int:
        with self.lock:
            if not self.depth:
                self.was_enabled = gc.isenabled()
                gc.disable()
            self.depth += 1
            return self.epoch

    def exit(self, epoch: int, promote: bool) -> None:
        with self.lock:
            if epoch != self.epoch:
                return
            self.depth -= 1
            if self.depth or not self.was_enabled:
                return
            threshold0, threshold1, _ = gc.get_threshold()
            if (promote and gc.get_count()[0] >= threshold0 * threshold1
                    and not gc.get_freeze_count()):
                gc.freeze()
                gc.unfreeze()
            gc.enable()

    def after_fork_in_child(self) -> None:
        self.lock = threading.Lock()
        if self.depth and self.was_enabled:
            gc.enable()
        self.depth = 0
        self.epoch += 1


_PAUSES = _Pauses()
if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX
    os.register_at_fork(after_in_child=_PAUSES.after_fork_in_child)


class bulk:
    """Pause the cycle collector for a bulk build (see the module
    docstring): a context manager, and a decorator that pauses every
    call of the function it wraps."""

    __slots__ = ("_epoch",)

    def __enter__(self) -> "bulk":
        self._epoch = _PAUSES.enter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _PAUSES.exit(self._epoch, promote=exc_type is None)

    def __call__(self, func):
        @functools.wraps(func)
        def paused(*args, **kwargs):
            with bulk():
                return func(*args, **kwargs)

        return paused

"""The bulk-build guard: the cycle collector is paused inside, restored
exactly outside, and a large pause promotes its survivors.

Every test leaves the collector as it found it (on, nothing frozen);
the process-wide pause state is read off ``repro.bulk._PAUSES``.
"""

import gc
import json
import os
import subprocess
import sys
import threading
import weakref

import pytest

import repro
from repro import bulk as bulk_module
from repro.bulk import bulk


@pytest.fixture(autouse=True)
def collector_on():
    assert gc.isenabled() and bulk_module._PAUSES.depth == 0
    yield
    assert bulk_module._PAUSES.depth == 0
    gc.enable()


def generation_of(obj) -> int | None:
    for generation in range(3):
        if any(o is obj for o in gc.get_objects(generation)):
            return generation
    return None


class TestRestore:
    def test_pauses_and_restores_an_enabled_collector(self):
        with bulk():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_leaves_a_disabled_collector_disabled(self):
        threshold0, threshold1, _ = gc.get_threshold()
        gc.disable()
        try:
            with bulk():
                keep = [[] for _ in range(threshold0 * threshold1)]
                assert not gc.isenabled()
            assert not gc.isenabled()
            # the collector was off at entry: nothing was promoted either
            assert generation_of(keep[-1]) == 0
        finally:
            gc.enable()

    def test_nesting_restores_at_the_outermost_exit(self):
        with bulk():
            with bulk():
                assert bulk_module._PAUSES.depth == 2
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_an_exception_restores_the_state(self):
        with pytest.raises(KeyError):
            with bulk():
                with bulk():
                    raise KeyError("inner")
        assert gc.isenabled()
        gc.disable()
        try:
            with pytest.raises(KeyError):
                with bulk():
                    raise KeyError("outer")
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_decorator_pauses_every_call(self):
        @bulk()
        def build(fail):
            """A build."""
            if fail:
                raise ValueError("no")
            return gc.isenabled()

        assert build(False) is False
        assert gc.isenabled()
        with pytest.raises(ValueError):
            build(True)
        assert gc.isenabled()
        assert build.__name__ == "build" and build.__doc__ == "A build."

    def test_threads_nesting_pauses_leave_the_collector_on(self):
        errors = []

        def worker():
            try:
                for _ in range(400):
                    with bulk():
                        with bulk():
                            [[] for _ in range(4)]
                        if gc.isenabled():
                            errors.append("collector on inside a pause")
            except BaseException as exc:  # reported below
                errors.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert gc.isenabled() and bulk_module._PAUSES.depth == 0

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_child_forked_mid_pause_has_the_collector_on(self):
        read, write = os.pipe()
        pause = bulk()
        pause.__enter__()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - child
            code = 1
            try:
                state = [gc.isenabled(), bulk_module._PAUSES.depth]
                # the pause opened before the fork closes as a no-op here
                pause.__exit__(None, None, None)
                state += [gc.isenabled(), bulk_module._PAUSES.depth]
                os.write(write, json.dumps(state).encode())
                code = 0
            finally:
                os._exit(code)
        pause.__exit__(None, None, None)
        os.close(write)
        with os.fdopen(read) as pipe:
            state = json.loads(pipe.read())
        _, status = os.waitpid(pid, 0)
        assert status == 0
        assert state == [True, 0, True, 0]
        assert gc.isenabled()


class TestPromotion:
    def test_a_callers_freeze_is_never_thawed(self):
        threshold0, threshold1, _ = gc.get_threshold()
        gc.collect()
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            with bulk():
                keep = [[] for _ in range(threshold0 * threshold1)]
            assert gc.get_freeze_count() == frozen > 0
            assert generation_of(keep[-1]) != 2
        finally:
            gc.unfreeze()

    def test_a_small_pause_does_not_promote(self):
        gc.collect()
        with bulk():
            keep = [[] for _ in range(100)]
        young = gc.get_count()[0]
        assert young >= 100
        assert generation_of(keep[-1]) == 0

    def test_a_large_pause_promotes_to_the_oldest_generation(self):
        threshold0, threshold1, _ = gc.get_threshold()
        gc.collect()
        with bulk():
            keep = [[] for _ in range(threshold0 * threshold1)]
        young = gc.get_count()[0]
        assert young < threshold0
        assert generation_of(keep[-1]) == 2
        assert gc.get_freeze_count() == 0

    def test_a_raising_pause_does_not_promote(self):
        threshold0, threshold1, _ = gc.get_threshold()
        keep = []
        gc.collect()
        with pytest.raises(KeyError):
            with bulk():
                keep.extend([] for _ in range(threshold0 * threshold1))
                raise KeyError("late")
        assert generation_of(keep[-1]) != 2

    @pytest.mark.parametrize("cycles", [10, 7000])
    def test_cyclic_garbage_made_in_a_pause_is_reclaimed(self, cycles):
        class Node:
            pass

        with bulk():
            nodes = [Node() for _ in range(cycles)]
            for node in nodes:
                node.self = node
            probe = weakref.ref(nodes[-1])
            del nodes, node
        assert probe() is not None
        assert gc.collect() >= cycles
        assert probe() is None


MECHANISM = """
import gc, io, json
from repro.core.taco_graph import dependencies_column_major
from repro.datasets import RegionSpec, SheetSpec, generate_sheet
from repro.graphs.nocomp import NoCompGraph
from repro.io.xlsx_reader import read_xlsx
from repro.io.xlsx_writer import write_xlsx

mix = (("sliding_window", 1.0), ("derived_column", 1.0), ("chain", 0.8), ("fig2", 0.8),
       ("fixed_lookup", 0.6), ("running_total", 0.4), ("shrinking_window", 0.15))
sheet = generate_sheet(SheetSpec("S", tuple(RegionSpec(k, int(1700 * w)) for k, w in mix), 7))
buffer = io.BytesIO()
write_xlsx(sheet, buffer)
passes = [0, 0, 0]

def count(phase, info):
    if phase == "start":
        passes[info["generation"]] += 1

out = {"cells": len(sheet)}
gc.collect()
gc.callbacks.append(count)
NoCompGraph().build(dependencies_column_major(sheet))
out["build"] = list(passes)
passes[:] = [0, 0, 0]
buffer.seek(0)
read_xlsx(buffer)
out["read"] = list(passes)
gc.callbacks.remove(count)
out["frozen"] = gc.get_freeze_count()
print(json.dumps(out))
"""


def test_a_bulk_build_runs_no_full_collection():
    """In a fresh interpreter, on a 20k-cell generated sheet: the stream
    and the NoComp build over it make no full pass and at most a handful
    of young ones (unpaused: 117 young and 10 middle-generation passes);
    the reader makes none (unpaused: 78, 7 and a full one), and at most
    one young pass when its few survivors, left young, meet the first
    allocation after it returns."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    result = subprocess.run(
        [sys.executable, "-c", MECHANISM],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    out = json.loads(result.stdout)
    assert out["cells"] >= 20_000, out
    young, middle, full = out["build"]
    assert full == 0 and middle == 0 and young <= 5, out
    young, middle, full = out["read"]
    assert full == 0 and middle == 0 and young <= 1, out
    assert out["frozen"] == 0, out

"""The seed's per-cell store: a reference the runtime never loads.

``ObjectStore`` answers the store calls of ``Sheet``'s store-layer
methods and of the structural pass, so that ``ObjectSheet`` can be the
oracle the columnar store is checked against (``tests/sheet``,
``tests/core/test_run_build.py``).  The calls only an engine or a loader
makes are the columnar store's alone.
"""

import inspect
import os
import re
import subprocess
import sys

import repro
from repro.baselines.object_store import ObjectSheet, ObjectStore
from repro.sheet import sheet as sheet_module
from repro.sheet import structural
from repro.sheet.columnar import ColumnarStore
from repro.sheet.sheet import Sheet

#: Store calls of ``Sheet`` that engines, kernels, lookup indexes and
#: loaders make — bands, plane slices, bulk column imports.  The
#: reference does not answer them.
ENGINE_FACING = {"read_band", "write_band", "import_column", "range_numbers"}


def test_every_store_call_of_the_sheet_is_classified():
    """What ``Sheet`` (and the structural pass that works on its store)
    calls on ``sheet._cells``, read off their source: every call is
    either answered by both stores or named engine-facing."""
    source = inspect.getsource(sheet_module) + inspect.getsource(structural)
    called = set(re.findall(r"(?:\._cells|\bstore)\.(\w+)", source))
    assert ENGINE_FACING <= called
    assert {"read_value", "write_pure", "structural_edit"} <= called
    for name in called | {"__len__", "__iter__", "items", "epoch", "formula_version"}:
        assert hasattr(ColumnarStore, name), name
        assert hasattr(ObjectStore, name) != (name in ENGINE_FACING), name


def test_the_object_sheet_only_swaps_the_store():
    assert type(Sheet("S")._cells) is ColumnarStore
    sheet = ObjectSheet("S")
    assert isinstance(sheet, Sheet) and type(sheet._cells) is ObjectStore


#: Open an xlsx, build, recalculate through every strip kind, save and
#: load a snapshot and serve one op — in a process of its own.
RUNTIME = """
import asyncio
import os
import sys
import tempfile

from repro.core.taco_graph import build_from_sheet
from repro.engine.recalc import RecalcEngine, _Strip
from repro.io.snapshot import load_snapshot, save_snapshot
from repro.io.xlsx_reader import read_xlsx
from repro.io.xlsx_writer import write_xlsx
from repro.server import WorkbookService
from repro.sheet.autofill import fill_formula_column
from repro.sheet.workbook import Workbook

book = Workbook("W")
s = book.add_sheet("S")
for r in range(1, 41):
    s.set_value((1, r), float(r))
    s.set_value((2, r), float(r % 7))
fill_formula_column(s, 3, 1, 40, "=SUM($A$1:A1)")
fill_formula_column(s, 4, 1, 40, "=A1*B1")
s.set_formula((5, 1), "=A1")
fill_formula_column(s, 5, 2, 40, "=E1+A2")
fill_formula_column(s, 6, 1, 40, "=IF(A1>9,B1,A1)")
s.set_formula((7, 1), "=VLOOKUP(5,$A$1:$B$40,2,FALSE)")

with tempfile.TemporaryDirectory() as tmp:
    write_xlsx(book, os.path.join(tmp, "w.xlsx"))
    opened = read_xlsx(os.path.join(tmp, "w.xlsx"))
    sheet = opened["S"]
    engine = RecalcEngine(sheet, build_from_sheet(sheet), workers=0, shards=0)
    plan = engine._build_plan(None, False)[0]
    kinds = sorted(node.kind for node in plan if type(node) is _Strip)
    assert kinds == ["c", "e", "s", "w"], kinds
    engine.recalculate_all()
    assert sheet.get_value("G1") == 5.0
    save_snapshot(opened, os.path.join(tmp, "w.snap"), {"S": engine.graph})
    assert load_snapshot(os.path.join(tmp, "w.snap")).workbook["S"].get_value("C40") == 820.0

    async def serve():
        async with WorkbookService(os.path.join(tmp, "svc"), fsync=False) as svc:
            await svc.create_workbook("wb", workbook=opened)
            await svc.execute("wb", "set_cell", {"sheet": "S", "cell": "A1", "value": 2})

    asyncio.run(serve())

loaded = sorted(name for name in sys.modules
                if name.startswith("repro.baselines") or name == "repro.sheet.object_store")
assert not loaded, loaded
"""


def test_the_runtime_never_imports_the_reference():
    """No runtime path — xlsx, graph, every kernel, lookups, snapshots,
    the service — imports the per-cell store, in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    result = subprocess.run(
        [sys.executable, "-c", "import repro\n" + RUNTIME],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr

"""Write the golden version-3 snapshot whose values travel as ``CELL`` sections.

    git checkout ff068b4 && PYTHONPATH=src python tests/io/fixtures/make_snapshot_cells_v3.py

``snapshot_cells_v3.snap`` is :func:`build_workbook` on the per-cell
object store, saved by the last writer that emitted ``CELL`` sections
(commit ``ff068b4``; later writers always write ``VCOL`` planes, so the
script only runs there).  Its ``META`` still carries the ``"stores"``
provenance key, which no loader reads.  Loading it must give the cells
the columnar-built :func:`build_workbook` holds
(``tests/io/test_snapshot_roundtrip.py``).  Never regenerate it.
"""

import os

from repro.engine.recalc import RecalcEngine
from repro.formula.errors import NA_ERROR
from repro.io.snapshot import save_snapshot
from repro.sheet.autofill import fill_formula_column
from repro.sheet.workbook import Workbook

SNAPSHOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "snapshot_cells_v3.snap")


def build_workbook(**sheet_options) -> Workbook:
    """``TestColumnarSections.build_workbook``: values with a hole, a
    string, a bool and an error, hand-typed formulas, two filled runs, a
    lone formula cutting one of them and a formula under a value column."""
    workbook = Workbook("v3")
    sheet = workbook.add_sheet("S", **sheet_options)
    for r in range(1, 31):
        sheet.set_value((1, r), float(r) / 7.0)
    sheet.set_value((1, 5), "five")
    sheet.set_value((1, 9), True)
    sheet.set_value((1, 11), None)          # hole
    sheet.set_value((3, 2), NA_ERROR)
    for r in range(1, 11):
        sheet.set_formula((2, r), f"=A{r}*2")           # hand-typed: a record each
    fill_formula_column(sheet, 2, 11, 30, "=A11*2")     # one run
    fill_formula_column(sheet, 4, 1, 30, "=SUM($A$1:A1)")
    sheet.set_formula("D7", "=A7+1")                    # a lone formula cuts the run
    sheet.set_formula("A31", "=SUM(B1:B30)")            # a formula under a value column
    RecalcEngine(sheet).recalculate_all()
    return workbook


def main() -> None:
    save_snapshot(build_workbook(store="object"), SNAPSHOT)


if __name__ == "__main__":
    main()

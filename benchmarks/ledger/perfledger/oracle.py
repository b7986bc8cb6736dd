"""Oracles, all run outside the timed sections.

The single-user workloads are checked against the slowest, simplest
stack in the repo: a sheet rebuilt from scratch, an uncompressed graph
and the tree-walking interpreter.  The served workloads are checked
for bit-identity against a synchronous engine fed the same write log.
"""

from __future__ import annotations

from repro.core.taco_graph import build_from_sheet, dependencies_column_major
from repro.engine.recalc import RecalcEngine
from repro.graphs.nocomp import NoCompGraph
from repro.io.snapshot import encode_value
from repro.sheet.sheet import Sheet

from . import inputs


def encoded_values(sheet: Sheet) -> dict:
    """Every cell's value in the JSON encoding (errors compare by code)."""
    return {pos: encode_value(cell.value) for pos, cell in sheet.items()}


def rebuilt_values(sheet: Sheet) -> dict:
    """Values of a from-scratch copy of ``sheet`` — same inputs and
    formula texts — evaluated by interpreter + NoComp."""
    copy = inputs.copy_sheet(sheet)
    graph = NoCompGraph()
    graph.build(dependencies_column_major(copy))
    RecalcEngine(copy, graph, evaluation="interpreter").recalculate_all()
    return encoded_values(copy)


def graph_matches_rebuild(sheet: Sheet, graph) -> bool:
    """The maintained graph decompresses to exactly the dependencies a
    fresh build over the current sheet represents."""
    def raw(g):
        return sorted(
            (d.prec.c1, d.prec.r1, d.prec.c2, d.prec.r2, d.dep.c1, d.dep.r1)
            for d in g.decompress()
        )

    return raw(graph) == raw(build_from_sheet(sheet))


def ledger_grid(workbook, rows: int) -> list:
    sheet = workbook.active_sheet
    return [
        [encode_value(sheet.get_value((col, row)))
         for col in range(1, inputs.LEDGER_COLUMNS + 1)]
        for row in range(1, rows + 1)
    ]


def replayed_ledger(wb_id: str, rows: int, seed: int, writes) -> list:
    """The ledger a synchronous engine reaches from the same write log."""
    workbook = inputs.ledger_workbook(wb_id, rows, seed)
    engine = RecalcEngine(workbook.active_sheet)
    engine.recalculate_all()
    for kind, *payload in writes:
        if kind == "set":
            engine.set_value(*payload)
        elif kind == "formula":
            engine.set_formula(*payload)
        else:  # "batch": [(cell, value)]
            with engine.begin_batch(workbook=workbook) as batch:
                for cell, value in payload[0]:
                    batch.set_value(cell, value)
    return ledger_grid(workbook, rows)

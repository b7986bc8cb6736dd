"""The single-user sessions: ``open_edit`` and ``bulk_maintain``.

``open_edit`` cold-opens three xlsx files (``read_xlsx`` ->
``build_from_sheet`` -> ``RecalcEngine.recalculate_all``) and then makes
point edits, round-robin over the files.  ``bulk_maintain`` has one
larger sheet with a VLOOKUP block open in memory and runs rounds of a
full recalculation, scattered value pastes and formula fill-downs
through ``engine.begin_batch``, and an ``insert_rows`` / ``delete_rows``
pair — the same ``core`` / ``spatial`` / ``engine.recalc`` layers driven
for writes beside reads, where ``core.find_dependents_multi``,
``engine.batch``, ``core.structural`` / ``sheet.structural`` and
``engine.lookup`` rebuilds dominate.

``io.xlsx_reader``, ``formula``, ``core`` and ``engine.recalc`` do all
the work; ``server``, ``engine.journal``, ``io.snapshot`` and
``engine.async_engine`` do none, so a server-only change must leave
every number of these workloads where it was.
"""

from __future__ import annotations

import os
import random
import statistics
import time

from repro.core.taco_graph import TacoGraph, build_from_sheet, dependencies_column_major
from repro.engine.recalc import RecalcEngine
from repro.graphs.nocomp import NoCompGraph
from repro.grid.range import Range
from repro.io.xlsx_reader import read_xlsx
from repro.io.xlsx_writer import write_xlsx
from repro.spatial import make_index

from . import inputs, oracle
from .outcome import Outcome, peak_rss_mb, step
from .tracing import HARNESS, span, untimed

#: The point-edit schedule of one file, a cycle of 11: three value edits
#: on the file's top fan-out cells (in turn), seven on data cells picked
#: evenly over the sheet (:class:`inputs.Spread`), one formula rewrite.
#: Thirty cycles are 300 ``set_value`` + 30 ``set_formula``; three in
#: ten value edits are fan-out ones, so p50 sits in the small-dirty-set
#: mode and p95 in the fan-out mode.  The schedule is fixed; the seed
#: moves only where the even picks start.
EDIT_CYCLE = 11
FANOUT_AT = (2, 5, 8)
FORMULA_AT = 10

#: One ``bulk_maintain`` round, in order.
BULK_ROUND = ("recalculate_all", "paste", "paste", "fill_down", "fill_down",
              "insert_rows", "delete_rows")


class IndexCensus:
    """An index factory that remembers what it made, so the traced pass
    can read the spatial layer's op counts through ``op_counts()``."""

    def __init__(self):
        self.made = []

    def __call__(self, **kwargs):
        index = make_index("rtree", **kwargs)
        self.made.append(index)
        return index

    def totals(self) -> dict[str, int]:
        out = {"search_ops": 0, "insert_ops": 0, "delete_ops": 0}
        for index in self.made:
            counts = index.op_counts()
            for key in out:
                out[key] += counts[key]
        return out


class FormulaToggler:
    """Formula edits that change a cell's text but not its references:
    wrap the current formula in ``(...)*1``, or restore the original."""

    def __init__(self):
        self._original: dict = {}

    def next_text(self, key, current_body: str) -> str:
        original = self._original.pop(key, None)
        if original is not None:
            return "=" + original
        self._original[key] = current_body
        return f"=({current_body})*1"


def setup(seed: int, sizes: dict, workdir: str) -> tuple[dict, dict[str, float]]:
    """Generate the workbooks, compute their cached values, write xlsx.
    Returns the state a session starts from and the steps' seconds."""
    paths, fill_col, steps = [], None, {}
    for i, base in enumerate(sizes["base_rows"]):
        with step(steps, f"gh{i} generate"):
            sheet = inputs.github_like_sheet(f"gh{i}", base, seed * 16 + i)
            if sizes["lookup"]:
                probes, table_rows = sizes["lookup"]
                inputs.add_lookup_block(sheet, probes, table_rows, seed)
            if sizes["fill_rows"]:
                fill_col = inputs.add_fill_block(sheet, sizes["fill_rows"])
        with step(steps, f"gh{i} cached values"):
            # any correct evaluator will do, and the uncompressed graph
            # builds several times faster than the compressed one
            graph = NoCompGraph()
            graph.build(dependencies_column_major(sheet))
            RecalcEngine(sheet, graph).recalculate_all()
        path = os.path.join(workdir, f"gh{i}.xlsx")
        with step(steps, f"gh{i} write_xlsx"):
            write_xlsx(sheet, path)
        paths.append(path)
    return {"paths": paths, "fill_col": fill_col}, steps


class _Desk:
    """One open file: its workbook, engine, edit targets and edit log."""

    def __init__(self, path, workbook, engine):
        self.path = path
        self.workbook = workbook
        self.engine = engine
        self.sheet = engine.sheet
        self.toggler = FormulaToggler()
        self.log: list[tuple] = []  # what the oracle replays
        self.edits = 0
        self.fanout_turn = 0

    def choose_targets(self, fanout_cells: int, rng: random.Random) -> None:
        self.values = inputs.value_cells(self.sheet)
        if fanout_cells:  # point edits are coming
            self.spread = inputs.Spread(rng)
            self.fanout = (inputs.top_fanout_cells(self.engine.graph, self.values, fanout_cells)
                           or self.values[:1])
            self.formulas = inputs.formula_cells(self.sheet)

    def next_edit(self):
        """The next point edit of the schedule as ``(kind, pos, payload)``."""
        at = self.edits % EDIT_CYCLE
        self.edits += 1
        sheet = self.sheet
        if at == FORMULA_AT:
            pos = self.spread.pick(self.formulas)
            return "formula", pos, self.toggler.next_text(pos, sheet.cell_at(pos).formula_text)
        if at in FANOUT_AT:
            pos = self.fanout[self.fanout_turn % len(self.fanout)]
            self.fanout_turn += 1
        else:
            pos = self.spread.pick(self.values)
        return "value", pos, sheet.get_value(pos) + 1.0


def _open(path: str, tracer, census, outcome: Outcome) -> _Desk:
    """xlsx -> sheet -> compressed graph -> first full recalc, timed as
    two intervals: the cached values the file carried are captured in
    between, and compared with the recomputed ones after."""
    start = time.perf_counter()
    with span(tracer, "io.xlsx_reader", "read_xlsx"):
        workbook = read_xlsx(path)
        sheet = workbook.active_sheet
    read_s = time.perf_counter() - start
    with untimed(tracer):
        cached = oracle.encoded_values(sheet)
    start = time.perf_counter()
    if tracer is None:
        graph = build_from_sheet(sheet)
    else:
        # build_from_sheet, step by step, so each layer gets its span
        with tracer.span("formula", "dependencies_column_major"):
            deps = dependencies_column_major(sheet)
        with tracer.span("core", "build"):
            graph = TacoGraph.full(index=census)
            graph.build(deps)
            graph.rebuild_indexes()
    engine = RecalcEngine(sheet, graph)
    with span(tracer, "engine.recalc", "recalculate_all"):
        engine.recalculate_all()
    outcome.sample("open", read_s + time.perf_counter() - start)
    with untimed(tracer):
        outcome.check(oracle.encoded_values(sheet) == cached,
                      f"{os.path.basename(path)}: recomputed != cached xlsx values")
    return _Desk(path, workbook, engine)


def _point_edit(desk: _Desk, kind: str, pos, payload, tracer, request: int) -> None:
    engine = desk.engine
    if tracer is None:
        if kind == "value":
            engine.set_value(pos, payload)
        else:
            engine.set_formula(pos, payload)
        return
    # The same edit performed step by step, so that maintenance, the
    # dependents query and the recompute each get a span.
    with tracer.span("engine.recalc", f"set_{kind}", request):
        with tracer.span("core", "maintain(apply_cell_mutation)"):
            engine.apply_cell_mutation(pos, kind, payload)
        with tracer.span("core", "find_dependents"):
            dirty = engine.graph.find_dependents(Range.cell(*pos))
        with tracer.span("engine.recalc", "recompute"):
            engine.recompute(dirty, extra={pos} if kind == "formula" else None)


def _commit(desk: _Desk, tracer, name: str, record):
    """One batch commit through the public session.  Traced, the
    commit's reported maintenance and recalc become child spans."""
    engine = desk.engine
    if tracer is None:
        with engine.begin_batch(workbook=desk.workbook) as batch:
            record(batch)
        return batch.result
    with tracer.span("engine.batch", name) as index:
        with engine.begin_batch(workbook=desk.workbook) as batch:
            record(batch)
    result = batch.result
    tracer.reported_child(index, "core", "maintain(batch)", result.maintain_seconds)
    tracer.reported_child(index, "engine.recalc", "find_dependents_multi+recompute",
                          result.recalc_seconds)
    return result


def _structural(desk: _Desk, tracer, op: str, row: int, count: int):
    call = getattr(desk.engine, op)
    if tracer is None:
        return call(row, count, workbook=desk.workbook)
    with tracer.span("engine.structural", op) as index:
        result = call(row, count, workbook=desk.workbook)
    tracer.reported_child(index, "core", "structural maintain (sheet + graph)",
                          result.maintain_seconds)
    tracer.reported_child(index, "engine.recalc", "recompute", result.recalc_seconds)
    return result


def _scattered(cells: list, count: int, rng: random.Random) -> list:
    """``count`` cells spread evenly over ``cells`` from a random start:
    every paste touches every region in proportion, so two pastes dirty
    about the same set whatever the seed drew."""
    count = min(count, len(cells))
    start, step = rng.randrange(len(cells)), len(cells) / count
    return [cells[(start + int(i * step)) % len(cells)] for i in range(count)]


def _edit_round(desks, number: int, tracer, outcome: Outcome) -> None:
    """One edit cycle on every file, round-robin."""
    for n in range(EDIT_CYCLE * len(desks)):
        desk = desks[n % len(desks)]
        with untimed(tracer):
            kind, pos, payload = desk.next_edit()
            desk.log.append((kind, pos, payload))
        request = number * EDIT_CYCLE * len(desks) + n
        outcome.timed_op(
            "settle", lambda: _point_edit(desk, kind, pos, payload, tracer, request),
            f"set_{kind}")


def _bulk_round(desk: _Desk, rng, sizes, fill_col, tracer, outcome: Outcome) -> None:
    engine, sheet = desk.engine, desk.sheet
    middle = sheet.used_range().r2 // 2  # delete_rows removes what insert_rows put in
    fills = 0
    for step in BULK_ROUND:
        if step == "recalculate_all":
            def recalc():
                with span(tracer, "engine.recalc", "recalculate_all"):
                    engine.recalculate_all()

            outcome.timed_op("full_recalc", recalc, step)
        elif step == "paste":
            pasted = [(pos, sheet.get_value(pos) + 1.0)
                      for pos in _scattered(desk.values, sizes["paste_edits"], rng)]

            def paste(batch):
                for pos, value in pasted:
                    batch.set_value(pos, value)

            outcome.timed_op("paste", lambda: _commit(desk, tracer, step, paste), step)
            desk.log.extend(("value", pos, value) for pos, value in pasted)
        elif step == "fill_down":
            # two templates a round, in turn: every commit rewrites the
            # column's references, and every round costs the same
            fills += 1
            texts = inputs.fill_formulas(fill_col - 1, sizes["fill_rows"], fills)

            def fill(batch):
                for row, text in enumerate(texts, start=1):
                    batch.set_formula((fill_col, row), text)

            outcome.timed_op("fill", lambda: _commit(desk, tracer, step, fill), step)
            desk.log.extend(
                ("formula", (fill_col, row), text) for row, text in enumerate(texts, start=1))
        else:
            outcome.timed_op(
                "structural",
                lambda: _structural(desk, tracer, step, middle, sizes["structural_rows"]), step)
            desk.log.append((step, middle, sizes["structural_rows"]))


def run(workload: str, state: dict, seed: int, sizes: dict, tracer=None) -> Outcome:
    outcome = Outcome()
    rng = random.Random(seed)
    census = IndexCensus() if tracer is not None else None
    bulk = workload == "bulk_maintain"
    desks = []

    def open_files():
        for path in state["paths"]:
            desks.append(_open(path, tracer, census, outcome))
            outcome.attempted += 1
        with untimed(tracer):
            for desk in desks:
                desk.choose_targets(sizes.get("fanout_cells", 0), rng)

    if bulk:
        open_files()  # its sheet is open in memory when the clock starts
    with span(tracer, HARNESS, "desk session") as root:
        outcome.root_span = root
        timed_start = time.perf_counter()
        if not bulk:
            open_files()
        for number in range(sizes["rounds"]):
            if bulk:
                _bulk_round(desks[0], rng, sizes, state["fill_col"], tracer, outcome)
            else:
                _edit_round(desks, number, tracer, outcome)
        outcome.values["peak_rss_mb"] = peak_rss_mb()
        outcome.timed_wall = time.perf_counter() - timed_start
    outcome.timed_ops = outcome.attempted
    if bulk:
        outcome.values["full_recalc_cells_per_s"] = (
            desks[0].sheet.formula_count / statistics.median(outcome.samples["full_recalc"]))
    else:
        outcome.values["open_s"] = sum(outcome.samples["open"])

    for name, field in (("compiled", "compiled_cells"), ("windowed", "windowed_cells"),
                        ("elementwise", "elementwise_cells"),
                        ("interpreted", "interpreted_cells")):
        outcome.reported[f"engine.recalc.cells_{name}"] = sum(
            getattr(desk.engine.eval_stats, field) for desk in desks
        )
    if census is not None:
        for key, value in census.totals().items():
            outcome.reported[f"spatial.{key}"] = value
    outcome.notes.update(
        files=len(desks), cells=sum(len(d.sheet) for d in desks),
        formulas=sum(d.sheet.formula_count for d in desks),
        rounds=sizes["rounds"],
        ops_per_round=len(BULK_ROUND) if bulk else EDIT_CYCLE * len(desks),
    )
    _verify(desks, outcome)
    return outcome


def _verify(desks, outcome: Outcome) -> None:
    """Each post-edit sheet equals its file re-read, re-edited at sheet
    level and re-evaluated by interpreter + NoComp; each maintained graph
    decompresses to what a fresh build represents."""
    for desk in desks:
        name = os.path.basename(desk.path)
        reference = read_xlsx(desk.path)
        sheet = reference.active_sheet
        for entry in desk.log:
            kind = entry[0]
            if kind == "value":
                sheet.set_value(entry[1], entry[2])
            elif kind == "formula":
                sheet.set_formula(entry[1], entry[2])
            else:  # insert_rows / delete_rows
                getattr(reference, kind)(sheet, entry[1], entry[2])
        outcome.check(
            oracle.encoded_values(desk.sheet) == oracle.rebuilt_values(sheet),
            f"{name}: edited sheet != interpreter/NoComp rebuild of the replayed edits",
        )
        outcome.check(
            oracle.graph_matches_rebuild(desk.sheet, desk.engine.graph),
            f"{name}: maintained graph != fresh build",
        )


def probe_workbook(state: dict):
    """What the layer probes run on: the largest file."""
    return read_xlsx(state["paths"][-1])

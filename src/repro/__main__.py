"""Command-line interface: ``python -m repro <command>``.

Commands operate on real ``.xlsx`` files through the stdlib reader:

* ``report FILE``              — per-sheet compression report (Tables II-V style)
* ``trace FILE SHEET!CELL``    — dependents and precedents of a cell
* ``export FILE [--dot|--json] [--sheet NAME]`` — compressed graph export
* ``edit FILE [--set A1=5] [--formula B1=A1*2] [--clear C1] [--batch]
  [--insert-rows ROW[:N]] [--delete-rows ROW[:N]]
  [--insert-cols COL[:N]] [--delete-cols COL[:N]] [--journal WAL]``
  — apply edits and recalculate, per-edit or as one batched commit;
  structural edits run first and rewrite references workbook-wide;
  ``--journal`` appends every committed edit to a write-ahead journal
* ``snapshot FILE OUT [--journal WAL]`` — persist values, formula
  source, and the compressed per-sheet graphs; ``--journal`` starts a
  fresh paired journal
* ``restore SNAPSHOT [--journal WAL] [--out FILE]`` — reopen from a
  snapshot, replay the journal's complete-record prefix, recompute only
  the dirtied cells
* ``whatif FILE --scenario B1=1.03,B2=0.7 --output I1 [--workers N]``
  — evaluate what-if scenarios on one shared recalculation plan
  (:class:`repro.engine.ScenarioEngine`); the file is never modified
* ``demo PATH``                — write a demonstration workbook to PATH

``report``, ``trace``, ``export``, ``edit`` and ``whatif`` accept
``--index`` to select the spatial-index backend backing the graphs (see
:mod:`repro.spatial`).
"""

from __future__ import annotations

import argparse
import random
import sys

from .bench.reporting import ascii_table, format_pct
from .core.export import summarize_graph, to_adjacency_json, to_dot
from .core.taco_graph import build_from_sheet, dependencies_column_major
from .graphs.nocomp import NoCompGraph
from .grid.range import Range
from .io import read_xlsx, write_xlsx
from .sheet.workbook import Workbook
from .spatial.registry import available_indexes

__all__ = ["main"]


def _cmd_report(args: argparse.Namespace) -> int:
    workbook = read_xlsx(args.file)
    rows = []
    for sheet in workbook.sheets():
        deps = dependencies_column_major(sheet)
        if not deps:
            rows.append([sheet.name, 0, "-", "-", "-"])
            continue
        nocomp = NoCompGraph(index=args.index)
        nocomp.build(deps)
        taco = build_from_sheet(sheet, index=args.index)
        rows.append([
            sheet.name,
            len(deps),
            nocomp.stats().vertices,
            len(taco),
            format_pct(len(taco) / len(deps)),
        ])
    print(ascii_table(["sheet", "dependencies", "vertices", "TACO edges", "remaining"], rows))
    return 0


def _parse_target(target: str, workbook: Workbook):
    if "!" in target:
        sheet_name, cell = target.split("!", 1)
        return workbook.sheet(sheet_name), Range.from_a1(cell)
    return workbook.active_sheet, Range.from_a1(target)


def _cmd_trace(args: argparse.Namespace) -> int:
    workbook = read_xlsx(args.file)
    try:
        sheet, probe = _parse_target(args.cell, workbook)
    except KeyError:
        print(f"error: no such sheet in {args.cell!r}", file=sys.stderr)
        return 2
    graph = build_from_sheet(sheet, index=args.index)
    print(f"sheet {sheet.name}, probe {probe.to_a1()}")
    dependents = sorted(graph.find_dependents(probe), key=Range.as_tuple)
    print(f"\ndependents ({sum(r.size for r in dependents)} cells):")
    for rng in dependents[: args.limit]:
        print(f"  {rng.to_a1()}")
    if len(dependents) > args.limit:
        print(f"  ... and {len(dependents) - args.limit} more ranges")
    precedents = sorted(graph.find_precedents(probe), key=Range.as_tuple)
    print(f"\nprecedents ({sum(r.size for r in precedents)} cells):")
    for rng in precedents[: args.limit]:
        print(f"  {rng.to_a1()}")
    if len(precedents) > args.limit:
        print(f"  ... and {len(precedents) - args.limit} more ranges")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    workbook = read_xlsx(args.file)
    sheet = workbook.sheet(args.sheet) if args.sheet else workbook.active_sheet
    graph = build_from_sheet(sheet, index=args.index)
    if args.json:
        print(to_adjacency_json(graph))
    else:
        print(to_dot(graph, title=f"{sheet.name} formula graph"))
    print(f"// {summarize_graph(graph)}", file=sys.stderr)
    return 0


def _parse_assignment(spec: str) -> tuple[str, str]:
    if "=" not in spec:
        raise SystemExit(f"error: expected CELL=VALUE, got {spec!r}")
    cell, _, value = spec.partition("=")
    return cell, value


def _literal(text: str):
    """A command-line value: the number it spells, else the text itself."""
    try:
        return float(text)
    except ValueError:
        return text


class _StructuralFlag(argparse.Action):
    """Collect every structural flag into one list, preserving the order
    the flags appeared on the command line (each op's index is
    interpreted in post-previous-op coordinates, so order matters)."""

    _OPS = {
        "--insert-rows": "insert_rows",
        "--delete-rows": "delete_rows",
        "--insert-cols": "insert_columns",
        "--delete-cols": "delete_columns",
    }

    def __call__(self, parser, namespace, values, option_string=None):
        recorded = getattr(namespace, "structural_ops", None)
        if recorded is None:
            recorded = []
            namespace.structural_ops = recorded
        recorded.append((self._OPS[option_string], values))


def _parse_structural(spec: str, column: bool) -> tuple[int, int]:
    """Parse ``INDEX[:COUNT]``; column indexes also accept letters (``C:2``)."""
    from .grid.ref import letters_to_col

    head, _, tail = spec.partition(":")
    try:
        count = int(tail) if tail else 1
        try:
            index = int(head)
        except ValueError:
            if not column:
                raise
            index = letters_to_col(head)
    except ValueError:
        raise SystemExit(f"error: expected INDEX[:COUNT], got {spec!r}")
    if index < 1 or count < 1:
        raise SystemExit(f"error: index and count must be positive, got {spec!r}")
    return index, count


def _cmd_edit(args: argparse.Namespace) -> int:
    """Apply a stream of edits and recalculate, per-edit or batched."""
    import time

    from .engine.edits import ClearCell, SetFormula, SetValue, Structural
    from .engine.recalc import CircularReferenceError, RecalcEngine

    workbook = read_xlsx(args.file)
    sheet = workbook.sheet(args.sheet) if args.sheet else workbook.active_sheet
    engine = RecalcEngine(sheet, build_from_sheet(sheet, index=args.index),
                          workers=args.workers)
    try:
        engine.recalculate_all()
    except CircularReferenceError as err:
        print(f"error: workbook has a pre-existing {err}", file=sys.stderr)
        return 1

    # Structural ops were collected in command-line order (one shared
    # list): each op's index is interpreted after the previous ones, and
    # all of them before the cell edits.
    edits: list = []
    for op, spec in getattr(args, "structural_ops", None) or ():
        edits.append(Structural(op, *_parse_structural(spec, column="columns" in op)))
    for spec in args.set or ():
        cell, value = _parse_assignment(spec)
        edits.append(SetValue(cell, _literal(value)))
    for spec in args.formula or ():
        edits.append(SetFormula(*_parse_assignment(spec)))
    edits.extend(ClearCell(cell) for cell in args.clear or ())
    if args.random:
        rng = random.Random(args.seed)
        values = [pos for pos, cell in sheet.items() if not cell.is_formula]
        if not values:
            print("error: --random needs value cells to edit", file=sys.stderr)
            return 2
        for _ in range(args.random):
            edits.append(SetValue(rng.choice(values), float(rng.randrange(1000))))
    if not edits:
        print("error: no edits given (--set/--formula/--clear/--random/"
              "--insert-rows/--delete-rows/--insert-cols/--delete-cols)",
              file=sys.stderr)
        return 2

    # Attach the journal only now, after every no-op/validation early
    # return: from here each committed edit appends one durable record.
    journal = None
    if args.journal:
        from .engine.journal import Journal, JournalFormatError

        try:
            journal = Journal(args.journal)
        except JournalFormatError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        if any(
            rec.get("kind") == "structural" or rec.get("structural")
            for rec in journal.preexisting_records
        ):
            # Structural records shift the grid: edits recorded now
            # against the *base* file would be replayed in post-shift
            # coordinates and land on the wrong cells.
            journal.close()
            print(
                f"error: {args.journal} already holds structural edits; "
                "appending edits against the base file would replay at "
                "shifted coordinates. Run `restore` and take a fresh "
                "snapshot (with a fresh journal) first.",
                file=sys.stderr,
            )
            return 2
        engine.journal = journal

    start = time.perf_counter()
    recomputed = 0
    try:
        if args.batch:
            with engine.begin_batch(workbook=workbook) as batch:
                for edit in edits:
                    batch.apply(edit)
            result = batch.result
            recomputed = result.recomputed
            print(
                f"batched commit: {result.ops} edits "
                f"({result.structural_ops} structural) -> "
                f"{len(result.cleared_ranges)} cleared ranges, "
                f"{result.edges_touched} edges touched, "
                f"repacked={result.repacked}"
            )
        else:
            for edit in edits:
                result = engine.apply(edit, workbook=workbook)
                recomputed += result.recomputed
                if type(edit) is Structural:
                    print(
                        f"{edit.op} {edit.index}:{edit.count} -> "
                        f"{result.moved_cells} cells moved, "
                        f"{result.rewritten_formulas} formulas rewritten "
                        f"({result.cross_sheet_rewrites} cross-sheet), "
                        f"{result.ref_errors} #REF!, "
                        f"{result.maintenance.edges_touched} edges touched"
                    )
    except CircularReferenceError as err:
        print(f"error: {err}", file=sys.stderr)
        if journal is not None:
            journal.close()
        return 1
    elapsed = time.perf_counter() - start
    mode = "batched" if args.batch else "per-edit"
    print(f"{mode}: {len(edits)} edits, "
          f"{recomputed} cells recomputed in {elapsed * 1000:.1f} ms")
    if journal is not None:
        journal.close()
        print(f"journaled {journal.records_written} records to {args.journal}")
    if args.out:
        write_xlsx(workbook, args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_snapshot(args: argparse.Namespace) -> int:
    """Persist a workbook snapshot (values + compressed per-sheet graphs)."""
    from .engine.recalc import CircularReferenceError, RecalcEngine

    workbook = read_xlsx(args.file)
    graphs = {}
    for sheet in workbook.sheets():
        graph = build_from_sheet(sheet, index=args.index)
        try:
            RecalcEngine(sheet, graph).recalculate_all()
        except CircularReferenceError as err:
            print(f"warning: {sheet.name}: {err} (cells marked #CYCLE!)",
                  file=sys.stderr)
        graphs[sheet.name] = graph
    stats = workbook.snapshot(args.snapshot, graphs)
    print(f"wrote {args.snapshot}: {stats.sheets} sheets, {stats.cells} cells, "
          f"{stats.edges} compressed edges, {stats.bytes_written:,} bytes")
    if args.journal:
        from .engine.journal import Journal

        Journal(args.journal, truncate=True,
                snapshot_id=stats.snapshot_id).close()
        print(f"started fresh journal {args.journal} "
              f"(paired with snapshot {stats.snapshot_id[:12]})")
    return 0


def _cmd_restore(args: argparse.Namespace) -> int:
    """Reopen a workbook from a snapshot plus its write-ahead journal."""
    from .engine.journal import JournalFormatError
    from .io.snapshot import SnapshotFormatError
    from .sheet.workbook import Workbook

    try:
        result = Workbook.restore(args.snapshot, args.journal,
                                  workers=args.workers)
    except (SnapshotFormatError, JournalFormatError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    workbook = result.workbook
    print(f"restored {workbook.name!r}: {len(workbook)} sheets "
          f"({', '.join(workbook.sheet_names)})")
    if args.journal:
        tail = " (torn tail cut)" if result.torn_tail else ""
        print(f"replayed {result.records_applied} journal records{tail}; "
              f"{result.dirty_count} dirty cells, "
              f"{result.recomputed} recomputed")
    for name, err in result.cycle_errors.items():
        print(f"warning: {name}: {err} (cells marked #CYCLE!)", file=sys.stderr)
    if args.out:
        write_xlsx(workbook, args.out)
        print(f"wrote {args.out}")
    return 0


def _parse_uniform(spec: str) -> "tuple[str, float, float]":
    """``CELL=LO:HI`` -> (cell, lo, hi) for a Monte Carlo uniform draw."""
    cell, bounds = _parse_assignment(spec)
    lo, sep, hi = bounds.partition(":")
    if not sep:
        raise ValueError(f"expected CELL=LO:HI, got {spec!r}")
    return cell, float(lo), float(hi)


def _cmd_whatif(args: argparse.Namespace) -> int:
    """Evaluate what-if scenarios on one shared recalculation plan."""
    from .engine.recalc import CircularReferenceError, RecalcEngine
    from .engine.scenario import ScenarioEngine

    if args.sample:
        if not args.uniform:
            print("error: --sample requires at least one --uniform CELL=LO:HI",
                  file=sys.stderr)
            return 2
    elif not args.scenario:
        print("error: give --scenario overrides, or --sample N with "
              "--uniform draws", file=sys.stderr)
        return 2

    workbook = read_xlsx(args.file)
    sheet = workbook.sheet(args.sheet) if args.sheet else workbook.active_sheet
    engine = RecalcEngine(sheet, build_from_sheet(sheet, index=args.index))
    try:
        engine.recalculate_all()
    except CircularReferenceError as err:
        print(f"error: workbook has a pre-existing {err}", file=sys.stderr)
        return 1

    scenarios: list[dict[str, object]] = []
    seeds: list[str] = []
    uniforms: list[tuple[str, float, float]] = []
    if args.sample:
        try:
            uniforms = [_parse_uniform(spec) for spec in args.uniform]
        except ValueError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        seeds = [cell for cell, _, _ in uniforms]
    else:
        for spec in args.scenario:
            overrides: dict[str, object] = {}
            for part in spec.split(","):
                cell, value = _parse_assignment(part)
                overrides[cell] = _literal(value)
                if cell not in seeds:
                    seeds.append(cell)
            scenarios.append(overrides)

    try:
        whatif = ScenarioEngine(engine, seeds)
        if args.sample:
            def draw(rng: random.Random) -> dict:
                return {cell: rng.uniform(lo, hi)
                        for cell, lo, hi in uniforms}

            results = whatif.sample(args.sample, draw, outputs=args.output,
                                    seed=args.seed, workers=args.workers)
        else:
            results = whatif.run(scenarios, args.output, workers=args.workers)
    except (ValueError, RuntimeError, CircularReferenceError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.sample:
        print(f"{args.sample} samples over {len(seeds)} seeds "
              f"(seed={args.seed}), shared plan of {whatif.plan_size} cells")
        rows = []
        for out in args.output:
            numeric = [r[out] for r in results
                       if isinstance(r[out], (int, float))
                       and not isinstance(r[out], bool)]
            if numeric:
                rows.append([out, len(numeric),
                             sum(numeric) / len(numeric),
                             min(numeric), max(numeric)])
            else:
                rows.append([out, 0, "-", "-", "-"])
        print(ascii_table(["output", "n", "mean", "min", "max"], rows))
        return 0
    print(f"{len(scenarios)} scenarios over {len(seeds)} seeds, "
          f"shared plan of {whatif.plan_size} cells")
    baseline = {out: sheet.get_value(out) for out in args.output}
    print(ascii_table(
        ["scenario"] + list(args.output),
        [["base"] + [baseline[out] for out in args.output]] + [
            [spec] + [result[out] for out in args.output]
            for spec, result in zip(args.scenario, results)
        ],
    ))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Host workbooks in the async service and drive a mixed trace."""
    import asyncio
    import os
    import re
    import tempfile

    from .server import WorkbookService

    rng = random.Random(args.seed)
    workbooks = {}
    targets = {}
    for path in args.files:
        stem = os.path.splitext(os.path.basename(path))[0]
        wb_id = re.sub(r"[^A-Za-z0-9._-]", "_", stem) or "wb"
        while wb_id in workbooks:
            wb_id += "x"
        workbook = read_xlsx(path)
        sheet = workbook.active_sheet
        cells = sorted(sheet.positions())
        values = [pos for pos in cells if sheet.formula_at(pos) is None]
        targets[wb_id] = (sheet.name, cells[:2000], values[:2000])
        workbooks[wb_id] = workbook

    async def drive(data_dir: str) -> dict:
        async with WorkbookService(
            data_dir, max_resident=args.resident, fsync=not args.no_fsync
        ) as service:
            for wb_id, workbook in workbooks.items():
                await service.create_workbook(wb_id, workbook=workbook)
            ids = list(workbooks)
            submitted = []
            for _ in range(args.ops):
                wb_id = rng.choice(ids)
                sheet_name, cells, values = targets[wb_id]
                if values and rng.random() < args.write_ratio:
                    pos = rng.choice(values)
                    op, params = "set_cell", {
                        "cell": Range.cell(*pos).to_a1(),
                        "value": round(rng.uniform(1, 1000), 3),
                        "sheet": sheet_name,
                    }
                elif cells and rng.random() < 0.75:
                    pos = rng.choice(cells)
                    op, params = "get_cell", {
                        "cell": Range.cell(*pos).to_a1(), "sheet": sheet_name,
                    }
                else:
                    op, params = "summarize_sheet", {"sheet": sheet_name}
                submitted.append(service.execute(wb_id, op, params))
                if len(submitted) >= 16:
                    await asyncio.gather(*submitted)
                    submitted.clear()
            if submitted:
                await asyncio.gather(*submitted)
            for wb_id in ids:
                await service.execute(wb_id, "recalculate")
            return service.stats()

    if args.data_dir is not None:
        stats = asyncio.run(drive(args.data_dir))
    else:
        with tempfile.TemporaryDirectory() as tmp:
            stats = asyncio.run(drive(tmp))

    print(f"{len(workbooks)} workbooks, {args.ops} ops "
          f"(write ratio {args.write_ratio}), max resident {args.resident}")
    print(ascii_table(
        ["op", "count", "errors", "mean ms", "max ms"],
        [[name, s["count"], s["errors"],
          round(s["mean_seconds"] * 1e3, 3), round(s["max_seconds"] * 1e3, 3)]
         for name, s in stats["per_op"].items()],
    ))
    print(f"throughput      : {stats['ops_per_second']:.0f} ops/sec")
    print(f"evictions       : {stats['evictions']}, "
          f"re-admissions: {stats['readmissions']}")
    print(f"journal records : {stats['journal_records']}, "
          f"background cells: {stats['background_cells']}")
    print(f"queue depth     : mean {stats['mean_queue_depth']:.2f}, "
          f"max {stats['max_queue_depth']}")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from .datasets.regions import build_region

    rng = random.Random(args.seed)
    workbook = Workbook("demo")
    sheet = workbook.add_sheet("Demo")
    build_region(sheet, "fig2", 1, 2, args.rows, rng)
    build_region(sheet, "fixed_lookup", 6, 2, args.rows // 2, rng)
    build_region(sheet, "running_total", 12, 2, args.rows // 2, rng)
    write_xlsx(workbook, args.path)
    print(f"wrote {args.path}: {len(sheet)} cells, "
          f"{sheet.formula_count} formulae")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TACO: compressed spreadsheet formula graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_index_option(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--index",
            default="rtree",
            choices=available_indexes(),
            help="spatial-index backend for the graphs (default: rtree)",
        )

    report = sub.add_parser("report", help="per-sheet compression report")
    report.add_argument("file")
    add_index_option(report)
    report.set_defaults(fn=_cmd_report)

    trace = sub.add_parser("trace", help="trace dependents/precedents of a cell")
    trace.add_argument("file")
    trace.add_argument("cell", help="A1 address, optionally Sheet!A1")
    trace.add_argument("--limit", type=int, default=20)
    add_index_option(trace)
    trace.set_defaults(fn=_cmd_trace)

    export = sub.add_parser("export", help="export the compressed graph")
    export.add_argument("file")
    export.add_argument("--sheet", default=None)
    export.add_argument("--json", action="store_true", help="JSON instead of dot")
    add_index_option(export)
    export.set_defaults(fn=_cmd_export)

    edit = sub.add_parser("edit", help="apply edits and recalculate")
    edit.add_argument("file")
    edit.add_argument("--sheet", default=None)
    edit.add_argument("--set", action="append", metavar="CELL=VALUE",
                      help="write a value (repeatable)")
    edit.add_argument("--formula", action="append", metavar="CELL=EXPR",
                      help="write a formula (repeatable)")
    edit.add_argument("--clear", action="append", metavar="CELL",
                      help="erase a cell (repeatable)")
    edit.add_argument("--random", type=int, default=0, metavar="N",
                      help="append N random value edits (workload demo)")
    edit.add_argument("--insert-rows", action=_StructuralFlag, metavar="ROW[:N]",
                      help="insert N blank rows before ROW (repeatable; "
                           "structural edits run before cell edits, in the "
                           "order the flags appear)")
    edit.add_argument("--delete-rows", action=_StructuralFlag, metavar="ROW[:N]",
                      help="delete N rows starting at ROW (repeatable)")
    edit.add_argument("--insert-cols", action=_StructuralFlag, metavar="COL[:N]",
                      help="insert N blank columns before COL "
                           "(number or letter; repeatable)")
    edit.add_argument("--delete-cols", action=_StructuralFlag, metavar="COL[:N]",
                      help="delete N columns starting at COL (repeatable)")
    edit.add_argument("--seed", type=int, default=7)
    edit.add_argument("--workers", type=int, default=None, metavar="N",
                      help="recalculate column shards of the dirty set on "
                           "N resident workers (default: REPRO_RECALC_SHARDS)")
    edit.add_argument("--batch", action="store_true",
                      help="commit all edits as one batched session "
                           "(coalesced maintenance + single recalc)")
    edit.add_argument("--journal", default=None, metavar="WAL",
                      help="append every committed edit to this "
                           "write-ahead journal (fsync'd per commit)")
    edit.add_argument("--out", default=None, help="write the result to OUT")
    add_index_option(edit)
    edit.set_defaults(fn=_cmd_edit)

    snapshot = sub.add_parser(
        "snapshot",
        help="persist values + compressed graphs for rebuild-free reopening",
    )
    snapshot.add_argument("file", help="source .xlsx workbook")
    snapshot.add_argument("snapshot", help="snapshot file to write")
    snapshot.add_argument("--journal", default=None, metavar="WAL",
                          help="also start a fresh write-ahead journal "
                               "paired with the snapshot")
    add_index_option(snapshot)
    snapshot.set_defaults(fn=_cmd_snapshot)

    restore = sub.add_parser(
        "restore",
        help="reopen from a snapshot, replaying a write-ahead journal",
    )
    restore.add_argument("snapshot", help="snapshot file to read")
    restore.add_argument("--journal", default=None, metavar="WAL",
                         help="replay this journal's complete-record prefix")
    restore.add_argument("--workers", type=int, default=None, metavar="N",
                         help="replay recalculation on N resident workers "
                              "(default: REPRO_RECALC_SHARDS)")
    restore.add_argument("--out", default=None,
                         help="write the restored workbook to OUT (.xlsx)")
    restore.set_defaults(fn=_cmd_restore)

    whatif = sub.add_parser(
        "whatif",
        help="evaluate what-if scenarios on one shared recalculation plan",
    )
    whatif.add_argument("file")
    whatif.add_argument("--sheet", default=None)
    whatif.add_argument("--scenario", action="append", default=[],
                        metavar="CELL=VALUE[,CELL=VALUE...]",
                        help="one scenario's seed overrides (repeatable); "
                             "cells a scenario omits keep their base values")
    whatif.add_argument("--output", action="append", required=True,
                        metavar="CELL", help="cell to report per scenario "
                        "(repeatable)")
    whatif.add_argument("--sample", type=int, default=0, metavar="N",
                        help="Monte Carlo: run N sampled scenarios instead "
                             "of --scenario (needs --uniform draws)")
    whatif.add_argument("--uniform", action="append", default=[],
                        metavar="CELL=LO:HI",
                        help="draw CELL uniformly from [LO, HI] per sample "
                             "(repeatable; used with --sample)")
    whatif.add_argument("--seed", type=int, default=0,
                        help="RNG seed for --sample; equal seeds give "
                             "bit-identical sweeps regardless of --workers "
                             "(default: 0)")
    whatif.add_argument("--workers", type=int, default=None, metavar="N",
                        help="replay scenarios on N process workers "
                             "(default: REPRO_RECALC_SHARDS)")
    add_index_option(whatif)
    whatif.set_defaults(fn=_cmd_whatif)

    serve = sub.add_parser(
        "serve",
        help="host workbooks in the async multi-tenant service "
             "and drive a mixed read/write trace",
    )
    serve.add_argument("files", nargs="+", help="xlsx workbooks to host")
    serve.add_argument("--ops", type=int, default=500,
                       help="trace length (default: 500)")
    serve.add_argument("--resident", type=int, default=4, metavar="N",
                       help="LRU capacity: max workbooks in memory (default: 4)")
    serve.add_argument("--write-ratio", type=float, default=0.2,
                       help="fraction of ops that write (default: 0.2)")
    serve.add_argument("--seed", type=int, default=7)
    serve.add_argument("--data-dir", default=None,
                       help="snapshot+journal directory (default: a temp dir)")
    serve.add_argument("--no-fsync", action="store_true",
                       help="skip per-record fsync (faster, less durable)")
    serve.set_defaults(fn=_cmd_serve)

    demo = sub.add_parser("demo", help="write a demonstration workbook")
    demo.add_argument("path")
    demo.add_argument("--rows", type=int, default=300)
    demo.add_argument("--seed", type=int, default=7)
    demo.set_defaults(fn=_cmd_demo)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    finally:
        # Commands that recalculated with workers= left process pools
        # resident for reuse; a CLI invocation is one-shot.
        from .engine.shard import shutdown_pools

        shutdown_pools()


if __name__ == "__main__":
    sys.exit(main())

"""What the ledger measures: workloads, sizes, metric names, units, bounds.

``BENCHMARK.json`` at the repo root repeats the contract part of this
file (command, workloads, :data:`END_TO_END`, :data:`PER_LAYER`) for the
driver; ``run.py manifest`` prints it and the smoke test keeps the two
equal.

The driver's contract wants the *same* metric names on every run,
whatever the workload, so the contract lists only what every workload
measures natively.  The metrics one workload has and another has not
(:data:`NATIVE`, :data:`PER_LAYER_NATIVE`) are printed by every run of
that workload and kept in the ledger document and ``diff``; a pairing
that does not exist is absent there, never a zero.
"""

from __future__ import annotations

from typing import NamedTuple

#: How long one run measures unless ``--seconds`` says otherwise.
RUN_SECONDS = 10

COMMAND = ["python3", "benchmarks/ledger/run.py"]
PATHS = ["benchmarks/ledger"]


class Metric(NamedTuple):
    name: str
    unit: str
    better: str          # "lower" | "higher"
    bound: float | None  # share of the parent's median it may worsen by
    meaning: str = ""


#: name -> one line on why the workload exists (sizes and flush policy
#: included: ``BENCHMARK.json`` has no other place for them).
WORKLOADS = {
    "open_edit": (
        "single user, no server: cold-open 3 github-like xlsx (7k/12k/20k cells), then 30 rounds "
        "of 33 point edits over them (per file 300 set_value, 3 in 10 on top fan-out cells, 30 "
        "set_formula)"
    ),
    "bulk_maintain": (
        "single user, writes beside reads: a 26k-cell sheet with an 800-probe VLOOKUP block, open "
        "in memory; 6 rounds of full recalc, two 1000-edit pastes, two 1000-row fill-downs, "
        "insert/delete rows"
    ),
    "serve_resident": (
        "WorkbookService(max_resident=4, fsync per journal record), 4 ledgers of 300 rows, 2 "
        "closed-loop clients, 800 ops of a 55/15/22/3/5 mix, every 8th write a settle probe; "
        "zero evictions"
    ),
    "serve_churn": (
        "same service, mix and flush policy over 12 ledgers of 300 rows through 4 slots, 800 ops: "
        "every 5th goes to one of 9 cold workbooks and evicts (drain, snapshot, rotate) and "
        "re-admits"
    ),
}

SERVE = ("serve_resident", "serve_churn")

#: Input shapes and op counts.  Shapes and mixes are fixed; ``rounds``
#: is for a run of :data:`RUN_SECONDS` and scales with ``--seconds``
#: (:func:`sizes_for`), never with how fast the machine happens to be:
#: two runs with one seed do exactly the same work.
SIZES = {
    "open_edit": {
        "base_rows": (560, 960, 1600), "lookup": None, "fill_rows": None,
        "fanout_cells": 6, "rounds": 30,
    },
    "bulk_maintain": {
        "base_rows": (1500,), "lookup": (800, 2000), "fill_rows": 1000,
        "paste_edits": 1000, "structural_rows": 3, "rounds": 6,
    },
    "serve_resident": {"rows": 300, "hot": 4, "cold": 0, "settle_every": 8, "rounds": 8},
    "serve_churn": {"rows": 300, "hot": 3, "cold": 9, "settle_every": 0, "rounds": 8},
}

#: ``--smoke``: the same shapes, small enough that all four workloads
#: and their traced passes run inside the tier-1 test budget.
SMOKE_SIZES = {
    "open_edit": dict(SIZES["open_edit"], base_rows=(16, 20, 24), fanout_cells=3, rounds=1),
    "bulk_maintain": dict(SIZES["bulk_maintain"], base_rows=(28,), lookup=(16, 32),
                          fill_rows=12, paste_edits=16, rounds=1),
    "serve_resident": dict(SIZES["serve_resident"], rows=24, settle_every=4, rounds=1),
    "serve_churn": dict(SIZES["serve_churn"], rows=24, rounds=1),
}

#: Rounds that hold however short ``--seconds`` is.  A p95 wants 200
#: samples behind it, and a served round has 30 writes.
MIN_ROUNDS = {"open_edit": 7, "bulk_maintain": 3, "serve_resident": 7, "serve_churn": 7}


def sizes_for(workload: str, smoke: bool, seconds: float = RUN_SECONDS) -> dict:
    """The workload's sizes with its round count scaled to ``seconds``."""
    if smoke:
        return dict(SMOKE_SIZES[workload])
    sizes = dict(SIZES[workload])
    sizes["rounds"] = max(MIN_ROUNDS[workload], round(sizes["rounds"] * seconds / RUN_SECONDS))
    return sizes


#: The contract's ``end_to_end``: what every workload measures and what
#: repeats within its bound on the shared box this was calibrated on
#: (README, "Noise calibration").  No latency or rate does, and none is
#: common to the four workloads: they are :data:`NATIVE`.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.15,
           "generate inputs and reach the timed starting state: five set-ups, every step "
           "at the fastest of its five repetitions"),
    Metric("peak_rss_mb", "MiB", "lower", 0.05,
           "ru_maxrss of the run's measuring process when the timed section ends"),
)

_SETTLE_P50 = Metric(
    "edit_settle_ms_p50", "ms", "lower", 0.10,
    "point write submitted -> every dependent recomputed (open_edit: wall of the "
    "set_value/set_formula call; served: submit -> sentinel clean)")
_SERVED = (
    Metric("write_ack_ms_p50", "ms", "lower", 0.10,
           "await service.execute(write): the paper's control-return point as a client sees it"),
    Metric("write_ack_ms_p95", "ms", "lower", 0.15, "same, tail"),
    Metric("read_ms_p50", "ms", "lower", 0.10, "get_cell / get_range latency"),
    Metric("read_ms_p95", "ms", "lower", 0.15, "same, tail (serve_churn: the miss mode)"),
    Metric("ops_per_s", "ops/s", "higher", 0.10, "trace ops completed / trace wall"),
)

#: End-to-end metrics native to one workload and not to all four (the
#: issue's table, with its bounds): in every run's table, the ledger
#: document and ``diff``, not in the contract line.
NATIVE = {
    "open_edit": (
        Metric("open_s", "s", "lower", 0.10,
               "sum over the 3 files of cold xlsx -> graph -> first full recalc"),
        _SETTLE_P50,
        Metric("edit_settle_ms_p95", "ms", "lower", 0.15, "same, tail (the fan-out mode)"),
    ),
    "bulk_maintain": (
        Metric("paste_commit_ms_p50", "ms", "lower", 0.10,
               "commit of one scattered 1 000-edit value batch"),
        Metric("fill_commit_ms_p50", "ms", "lower", 0.10,
               "commit of one 1 000-row formula fill-down"),
        Metric("structural_ms_p50", "ms", "lower", 0.10,
               "one insert_rows/delete_rows including dirty recalc"),
        Metric("full_recalc_cells_per_s", "cells/s", "higher", 0.10,
               "formula cells / median recalculate_all wall"),
    ),
    "serve_resident": (_SETTLE_P50, *_SERVED),
    "serve_churn": (
        *_SERVED,
        Metric("readmit_ms_p50", "ms", "lower", 0.10,
               "latency of ops issued against a workbook absent from service.resident_ids"),
    ),
}

#: Layers are this repo's modules; the trace's share table uses them.
LAYERS = (
    "io.xlsx_reader", "formula", "sheet", "core", "engine.recalc", "engine.batch",
    "engine.structural", "engine.async_engine", "engine.journal", "io.snapshot",
    "server",
)


def _layer(name: str, unit: str, better: str = "lower", meaning: str = "") -> Metric:
    return Metric(name, unit, better, None, meaning)


#: The contract's ``per_layer``: what every traced run measures.  A
#: probe times a layer's public functions on the workload's own probe
#: workbook (whether or not the workload's session enters the layer); a
#: share is the layer's self time in the traced session, 0 when the span
#: recorder saw the session spend none there.
PER_LAYER = (
    _layer("io.xlsx_reader.read_s", "s"),
    _layer("io.xlsx_reader.cells_per_s", "cells/s", "higher"),
    _layer("formula.parse_us_per_formula", "us"),
    _layer("formula.deps_us_per_dep", "us"),
    _layer("formula.templates_compiled", "count"),
    _layer("sheet.populate_cells_per_s", "cells/s", "higher"),
    _layer("sheet.structural_shift_ms", "ms"),
    _layer("core.build_s", "s"),
    _layer("core.build_deps_per_s", "1/s", "higher"),
    _layer("core.edges_remaining_frac", "frac"),
    _layer("core.find_dependents_us_p50", "us"),
    _layer("core.find_dependents_us_p95", "us"),
    _layer("core.find_dependents_multi_ms", "ms"),
    _layer("core.maintain_clear_ms", "ms"),
    _layer("core.maintain_batch_ms", "ms"),
    _layer("core.structural_shift_ms", "ms"),
    _layer("core.serialize_ms", "ms"),
    _layer("graphs.nocomp.build_s", "s"),
    _layer("graphs.nocomp.find_dependents_us_p50", "us"),
    _layer("engine.recalc.full_s", "s"),
    _layer("engine.recalc.recompute_ms_p50", "ms"),
    _layer("engine.batch.maintain_ms", "ms"),
    _layer("engine.batch.recalc_ms", "ms"),
    _layer("engine.batch.block_paste_ms", "ms"),
    _layer("engine.structural.maintain_ms", "ms"),
    _layer("engine.structural.recalc_ms", "ms"),
    _layer("engine.structural.rewritten_formulas", "count"),
    _layer("engine.lookup.index_hits", "count", "higher"),
    _layer("engine.lookup.index_builds", "count"),
    _layer("engine.async_engine.mark_us_p50", "us"),
    _layer("engine.async_engine.step_ms_p95", "ms"),
    _layer("engine.async_engine.drain_cells_per_s", "cells/s", "higher"),
    _layer("engine.journal.append_us_p50", "us"),
    _layer("engine.journal.bytes_per_record", "bytes"),
    _layer("engine.journal.recover_ms", "ms"),
    _layer("io.snapshot.save_ms", "ms"),
    _layer("io.snapshot.load_ms", "ms"),
    _layer("io.snapshot.bytes_per_cell", "bytes"),
    _layer("server.validate_us_p50", "us"),
    _layer("server.get_cell_overhead_us", "us"),
    # -- the session's own engines (served: its scratch copies), exact counts
    _layer("engine.recalc.cells_compiled", "count", "higher"),
    _layer("engine.recalc.cells_windowed", "count", "higher"),
    _layer("engine.recalc.cells_elementwise", "count", "higher"),
    _layer("engine.recalc.cells_interpreted", "count"),
    # -- the trace: self time per layer as a share of the timed wall
    *(_layer(f"share.{layer}", "frac") for layer in LAYERS),
    _layer("share.harness", "frac", meaning="timed wall no layer span covers"),
    _layer("trace.attributed_frac", "frac", "higher",
           "share of the timed wall under named layer spans"),
    _layer("trace.overhead_frac", "frac", "lower",
           "traced wall per op over untraced wall per op, minus one"),
    _layer("trace.spans", "count"),
)

_SPATIAL = (
    _layer("spatial.search_ops", "count"),
    _layer("spatial.insert_ops", "count"),
    _layer("spatial.delete_ops", "count"),
)
_SERVICE = (
    _layer("server.hit_rate", "frac", "higher"),
    _layer("server.evictions", "count"),
    _layer("server.readmissions", "count"),
    _layer("server.queue_depth_mean", "count"),
    _layer("server.queue_depth_max", "count"),
    _layer("server.background_cells", "count"),
    _layer("server.rotation_repairs", "count"),
)

#: Per-layer metrics only some workloads produce; as :data:`NATIVE`.
PER_LAYER_NATIVE = {
    "open_edit": _SPATIAL,
    "bulk_maintain": (
        *_SPATIAL,
        # the dispatch paths the pinned (serial) configuration never takes
        _layer("engine.parallel.thread_full_s", "s"),
        _layer("engine.parallel.process_full_s", "s"),
        _layer("engine.shard.full_s", "s"),
        _layer("engine.shard.hot_batch_ms_p50", "ms"),
        _layer("engine.shard.delta_bytes_per_dispatch", "bytes"),
        _layer("engine.shard.fallbacks", "count"),
        _layer("engine.scenario.sweep_ms_per_scenario", "ms"),
        _layer("engine.scenario.independent_ms_per_scenario", "ms"),
    ),
    "serve_resident": (
        *_SERVICE,
        *(_layer(f"settle_share.{layer}", "frac",
                 meaning="share of the settle probes' wall")
          for layer in ("engine.async_engine", "engine.journal", "server")),
    ),
    "serve_churn": (
        *_SERVICE,
        *(_layer(f"readmit_share.{layer}", "frac",
                 meaning="share of the wall of ops that missed")
          for layer in ("io.snapshot", "engine.journal", "engine.async_engine", "server")),
    ),
}


def end_to_end_for(workload: str) -> tuple[Metric, ...]:
    """Every end-to-end metric the ledger reports for ``workload``."""
    return END_TO_END + NATIVE[workload]


def per_layer_for(workload: str) -> tuple[Metric, ...]:
    return PER_LAYER + PER_LAYER_NATIVE[workload]


def manifest() -> dict:
    """The contract document (``BENCHMARK.json``) this spec implies."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }

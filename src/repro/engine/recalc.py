"""Incremental recalculation driven by the formula graph.

This is the paper's motivating application (Sec. I): when a cell changes,
the spreadsheet must find its dependents — on the critical path for
returning control to the user — mark them dirty, and recompute them in
dependency order.  The engine works against any
:class:`~repro.graphs.base.FormulaGraph`; plugging TACO in shrinks the
control-return time, which is exactly the paper's headline claim.

Per-edit cost: one graph BFS (compressed-edge bound, see
:mod:`repro.core.query`) to find the dirty set, then ``O(D + R)`` to
order and re-evaluate the ``D`` dirty formula cells with ``R`` dirty-set
reference pairs — untouched cells are never re-evaluated.  For many
edits at once, :meth:`RecalcEngine.begin_batch` amortises the graph
maintenance, the BFS, and the topological sort over the whole batch (see
:mod:`repro.engine.batch`).

Circular references discovered while ordering the dirty set raise
:class:`CircularReferenceError` carrying one offending cell chain; the
cells trapped in or downstream of cycles are marked ``#CYCLE!`` first,
so the sheet is left explicit about what could not be computed.

The paper's host (Sec. I, VI-A) hands control back *between* finding
the dependents and recomputing them: ``RecalcEngine(..., deferred=True)``
stops every update at that point (:class:`UpdateTicket`) and
:meth:`RecalcEngine.step` recomputes afterwards, in bounded slices.
"""

from __future__ import annotations

import os
import time
from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING, Iterable, NamedTuple

from ..core.taco_graph import build_from_sheet
from ..formula.compile import CompilingEvaluator, TemplateRegistry
from ..formula.errors import CYCLE_ERROR
from ..formula.parser import parse_formula
from ..graphs.base import FormulaGraph, expand_cells
from ..grid.range import Range
from ..io.snapshot import encode_value
from ..sheet.sheet import Dependency, Sheet, SheetResolver, _coerce_pos
from . import lookup, vectorized

if TYPE_CHECKING:  # pragma: no cover
    from .batch import BatchEditSession

__all__ = [
    "CellView",
    "CircularReferenceError",
    "RecalcEngine",
    "RecalcResult",
    "UpdateTicket",
]


class CircularReferenceError(RuntimeError):
    """A dependency cycle was found while ordering dirty cells.

    ``cycle`` is one concrete offending chain as ``(col, row)`` positions,
    closed — the first cell appears again at the end — and the message
    spells it in A1 notation (``B1 -> A1 -> B1``).  Every cell trapped in
    or downstream of a cycle has already been assigned ``#CYCLE!`` when
    this is raised.
    """

    def __init__(self, cycle: list[tuple[int, int]]):
        self.cycle = list(cycle)
        chain = " -> ".join(Range.cell(c, r).to_a1() for c, r in self.cycle)
        super().__init__(f"circular reference: {chain}")


class _TemplateRun:
    """One dispatchable windowed run: a column stretch + its blockers.

    A run is a maximal stretch of consecutive dirty cells in one column
    sharing a windowed-aggregate template.  ``blockers`` are the dirty
    cells *outside* the run that some member's window reads — in the
    super-node ordering they are the run's predecessors, so the run is
    scheduled only after all of them; in-run references need no edges
    because the rolling direction evaluates them in dependency order.
    """

    __slots__ = ("spec", "col", "rows", "member_set", "blockers")

    def __init__(self, spec, col: int, rows: list[int],
                 member_set: set[tuple[int, int]], blockers: set[tuple[int, int]]):
        self.spec = spec
        self.col = col
        self.rows = rows                # ascending, consecutive
        self.member_set = member_set
        self.blockers = blockers

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"_TemplateRun({self.spec.func} col={self.col} "
            f"rows={self.rows[0]}..{self.rows[-1]}, {len(self.blockers)} blockers)"
        )


class _ElementwiseRun:
    """One dispatchable elementwise run: a column stretch of cells whose
    shared template is pure float arithmetic over cell refs, evaluated
    as a single numpy array sweep.  Unlike windowed runs, no reference
    may resolve into the run itself (the sweep reads all inputs before
    writing any output), so construction rejects any recurrence; dirty
    cells the lanes read from *outside* the run are ``blockers``,
    ordering the run after them exactly like a windowed run.
    """

    __slots__ = ("template", "col", "rows", "member_set", "blockers")

    def __init__(self, template, col: int, rows: list[int],
                 member_set: set[tuple[int, int]], blockers: set[tuple[int, int]]):
        self.template = template
        self.col = col
        self.rows = rows                # ascending, consecutive
        self.member_set = member_set
        self.blockers = blockers

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"_ElementwiseRun({self.template.key!r} col={self.col} "
            f"rows={self.rows[0]}..{self.rows[-1]}, {len(self.blockers)} blockers)"
        )


def _plan_node_key(node) -> tuple[int, int]:
    """(col, first row) of a plan node — singles and runs alike."""
    if type(node) is tuple:
        return node
    return (node.col, node.rows[0])


class RecalcResult(NamedTuple):
    """Outcome of one update."""

    dirty_ranges: list[Range]
    dirty_count: int
    recomputed: int
    control_return_seconds: float
    total_seconds: float


class UpdateTicket(NamedTuple):
    """What a deferred engine hands back at the control-return point.

    ``dirty_count`` is *this update's own* dirty set — the formula
    cells this edit marked stale (including the edited cell itself for
    a formula edit).  ``pending`` is the engine-wide total still
    awaiting recomputation, which also counts carry-over from earlier
    updates that have not been pumped yet.
    """

    dirty_ranges: list[Range]
    dirty_count: int
    control_return_seconds: float
    pending: int = 0


class CellView(NamedTuple):
    """A read of a cell under the deferred model."""

    value: object
    is_dirty: bool


class RecalcEngine:
    """A sheet, its formula graph, and an evaluator, kept in sync.

    The engine owns the coupling invariant: after every public mutation
    returns, the graph's decompressed dependency set equals exactly the
    references of the sheet's formula cells (restricted to this sheet),
    and every formula cell whose value could have changed has been
    re-evaluated — or, on a ``deferred=True`` engine, is counted in
    :attr:`pending` until :meth:`step` / :meth:`drain` gets to it.
    """

    def __init__(
        self,
        sheet: Sheet,
        graph: FormulaGraph | None = None,
        *,
        evaluation: str = "auto",
        registry: TemplateRegistry | None = None,
        journal=None,
        workers: int | None = None,
        worker_mode: str | None = None,
        parallel_min_dirty: int | None = None,
        lookup_indexes: bool | None = None,
        shards: int | None = None,
        deferred: bool = False,
    ):
        if evaluation not in ("auto", "interpreter"):
            raise ValueError(f"unknown evaluation mode {evaluation!r}")
        self.sheet = sheet
        #: ``False`` — every update settles its dirty set before it
        #: returns; ``True`` — updates return at the control-return point
        #: with their dirty set added to the pending backlog.
        self.deferred = deferred
        self._pending: set[tuple[int, int]] = set()
        #: The backlog's execution plan as a stack (next node last), or
        #: ``None`` when the next :meth:`step` has to build one.
        self._plan: list | None = None
        #: Optional :class:`~repro.engine.journal.Journal`: every committed
        #: mutation (cell edit, batch commit, structural op) appends one
        #: durable record before dependents are recomputed.
        self.journal = journal
        self.graph = build_from_sheet(sheet) if graph is None else graph
        #: ``"auto"`` — compiled templates + windowed runs with transparent
        #: interpreter fallback; ``"interpreter"`` — tree-walker only (the
        #: pre-compilation behaviour, kept for benchmarking/differential tests).
        self.evaluation = evaluation
        self.cell_evaluator = CompilingEvaluator(SheetResolver(sheet), registry=registry)
        self.eval_stats = self.cell_evaluator.stats
        self.evaluator = self.cell_evaluator.interpreter
        #: Lookaside lookup indexes (``repro.engine.lookup``) — auto mode
        #: only, so ``evaluation="interpreter"`` remains a scan-only
        #: differential oracle.
        if self.evaluation == "auto" and lookup.indexes_enabled(lookup_indexes):
            lookup.attach_probe(self.cell_evaluator, sheet)
        if workers is None:
            workers = int(os.environ.get("REPRO_RECALC_WORKERS", "0") or 0)
        self.workers = int(workers)
        #: Region scheduler (``repro.engine.parallel``) — present only in
        #: auto mode with ``workers > 1``; interpreter engines stay serial
        #: so the differential oracle is never itself partitioned.
        if self.evaluation == "auto" and self.workers > 1:
            from .parallel import ParallelRecalc

            self.parallel = ParallelRecalc(
                self.workers, mode=worker_mode, min_dirty=parallel_min_dirty
            )
        else:
            self.parallel = None
        if shards is None:
            shards = int(os.environ.get("REPRO_RECALC_SHARDS", "0") or 0)
        self.shards = int(shards)
        #: Persistent shard runtime (``repro.engine.shard``) — auto mode
        #: over a columnar sheet with ``shards > 1``.  Tried before the
        #: pooled scheduler; object-store sheets have no plane protocol
        #: to ship, so the setting is silently inert there.
        if (
            self.evaluation == "auto" and self.shards > 1
            and getattr(sheet, "store_kind", "object") == "columnar"
        ):
            from .shard import ShardRuntime

            self.shard_runtime = ShardRuntime(
                self.shards, min_dirty=parallel_min_dirty
            )
        else:
            self.shard_runtime = None

    @classmethod
    def plan_executor(cls, sheet: Sheet, *, evaluation: str = "auto",
                      registry: TemplateRegistry | None = None) -> "RecalcEngine":
        """A graph-less shadow engine that can only run pre-built plans.

        Parallel region execution (:mod:`repro.engine.parallel`) needs
        the evaluation tiers — compiled templates, windowed rolls,
        elementwise sweeps, interpreter fallback — without graph
        maintenance, journaling, or further partitioning.  The shadow
        shares the parent's template registry (pass ``registry=``) so
        compilation work is not repeated per region, but owns a fresh
        :class:`~repro.formula.compile.EvalStats` whose counters the
        parent merges in deterministically after the region completes.
        """
        engine = cls.__new__(cls)
        engine.sheet = sheet
        engine.deferred = False
        engine._pending = set()
        engine._plan = None
        engine.journal = None
        engine.graph = None
        engine.evaluation = evaluation
        engine.cell_evaluator = CompilingEvaluator(SheetResolver(sheet), registry=registry)
        engine.eval_stats = engine.cell_evaluator.stats
        engine.evaluator = engine.cell_evaluator.interpreter
        if evaluation == "auto" and lookup.indexes_enabled():
            lookup.attach_probe(engine.cell_evaluator, sheet)
        engine.workers = 0
        engine.parallel = None
        engine.shards = 0
        engine.shard_runtime = None
        return engine

    # -- full recomputation ----------------------------------------------------

    def recalculate_all(self) -> int:
        """Evaluate every formula cell from scratch, in dependency order
        (at once even on a deferred engine, whose backlog it settles)."""
        self._pending.clear()
        self._plan = None
        cells = [pos for pos, _ in self.sheet.formula_cells()]
        return self._evaluate_in_order(set(cells))

    # -- updates ------------------------------------------------------------------

    def set_value(self, target, value) -> "RecalcResult | UpdateTicket":
        """Change a pure value and refresh its dependents.

        Overwriting a formula cell with a value also clears the cell's
        dependencies from the graph — otherwise stale edges would keep
        reporting dependents of a formula that no longer exists.
        """
        return self._edit(target, "value", value)

    def set_formula(self, target, text: str) -> "RecalcResult | UpdateTicket":
        """Change a formula: maintain the graph (clear + insert, Sec.
        IV-C), then refresh the cell and its dependents."""
        return self._edit(target, "formula", text)

    def clear_cell(self, target) -> "RecalcResult | UpdateTicket":
        """Erase a cell entirely and refresh its dependents."""
        return self._edit(target, "clear", None)

    def _edit(self, target, op: str, payload) -> "RecalcResult | UpdateTicket":
        """The one point-update path: validate, mutate sheet + graph,
        journal, find dependents, then settle them (:class:`RecalcResult`)
        or, deferred, mark them (:class:`UpdateTicket`)."""
        start = time.perf_counter()
        pos = self._position(target)
        # Validate before anything mutates.  Formulas parse lazily, so an
        # unparseable one would otherwise fail only after the cell's graph
        # edges were cleared and the bad text stored (the parse is
        # memoised: the later one is free).  Values must be representable
        # in the journal's record format, or sheet and journal diverge.
        if op == "formula":
            parse_formula(payload)
        elif op == "value" and self.journal is not None:
            encode_value(payload)
        self.apply_cell_mutation(pos, op, payload)
        if self.journal is not None:
            if op == "formula":
                payload = self.sheet.cell_at(pos).formula_text
            self.journal.record_cell(self.sheet.name, op, pos, payload)
        dirty_ranges = self.graph.find_dependents(Range.cell(*pos))
        control_return = time.perf_counter() - start
        dirty = self._formula_cells(dirty_ranges, (pos,) if op == "formula" else ())
        done = self._settle_or_mark(dirty)
        total = time.perf_counter() - start
        if self.deferred:
            return UpdateTicket(dirty_ranges, done, total, len(self._pending))
        return RecalcResult(
            dirty_ranges, sum(r.size for r in dirty_ranges), done,
            control_return, total,
        )

    # -- shared mutation core ------------------------------------------------------

    def apply_cell_mutation(self, pos: tuple[int, int], op: str, payload) -> None:
        """Sheet write + graph maintenance for one cell edit — no journal
        record, no recomputation.

        The shared core of :meth:`set_value` / :meth:`set_formula` /
        :meth:`clear_cell` *and* of journal replay
        (:mod:`repro.engine.journal`), so a recovered graph is maintained
        by definition exactly like the live one was.  ``op`` is
        ``"value"`` / ``"formula"`` / ``"clear"``; ``payload`` is the
        value or formula text (ignored for clears).
        """
        cell_range = Range.cell(*pos)
        if op == "value":
            previous = self.sheet.cell_at(pos)
            if previous is not None and previous.is_formula:
                # Stale edges would keep reporting dependents of a
                # formula that no longer exists.  Plain value writes
                # ride the version stamps and keep shards hot.
                self._formula_changed(pos)
                self.graph.clear_cells(cell_range)
            self.sheet.set_value(pos, payload)
        elif op == "formula":
            self._formula_changed(pos)
            self.graph.clear_cells(cell_range)
            self.sheet.set_formula(pos, payload)
            cell = self.sheet.cell_at(pos)
            for ref in cell.references:
                if ref.sheet is not None and ref.sheet != self.sheet.name:
                    continue
                self.graph.add_dependency(Dependency(ref.range, cell_range, ref.cue))
        elif op == "clear":
            if self.sheet.formula_at(pos) is not None:
                self._formula_changed(pos)
            self.graph.clear_cells(cell_range)
            self.sheet.clear_cell(pos)
        else:
            raise ValueError(f"unknown cell op {op!r}")

    def _formula_changed(self, pos: tuple[int, int]) -> None:
        """The formula at ``pos`` is about to appear, change or vanish:
        resident shard ownership and a kept backlog plan both describe
        the old one (a new formula is re-marked by its own edit)."""
        if self.shard_runtime is not None:
            self.shard_runtime.note_formula_change()
        self._pending.discard(pos)
        self._plan = None

    # -- batched editing ---------------------------------------------------------

    def begin_batch(self, **kwargs) -> "BatchEditSession":
        """Open a :class:`~repro.engine.batch.BatchEditSession` on this engine.

        Usable as a context manager: edits recorded inside the ``with``
        block are coalesced and committed on exit (discarded if the block
        raises).  See :mod:`repro.engine.batch` for the pipeline.
        """
        from .batch import BatchEditSession

        return BatchEditSession(self, **kwargs)

    # -- structural edits ---------------------------------------------------------

    def insert_rows(self, row: int, count: int = 1, **kwargs):
        """Insert ``count`` blank rows before ``row``, end-to-end.

        Sheet rewrite, incremental graph maintenance, and dirty
        recalculation in one pass — see
        :func:`repro.engine.structural.apply_structural_edit` (which
        also documents ``workbook=`` for cross-sheet reference
        rewriting).  Returns a
        :class:`~repro.engine.structural.StructuralEditResult`.
        """
        from .structural import apply_structural_edit

        return apply_structural_edit(self, "insert_rows", row, count, **kwargs)

    def delete_rows(self, row: int, count: int = 1, **kwargs):
        """Delete rows ``[row, row+count)``; references into them go ``#REF!``."""
        from .structural import apply_structural_edit

        return apply_structural_edit(self, "delete_rows", row, count, **kwargs)

    def insert_columns(self, col: int, count: int = 1, **kwargs):
        """Insert ``count`` blank columns before ``col``, end-to-end."""
        from .structural import apply_structural_edit

        return apply_structural_edit(self, "insert_columns", col, count, **kwargs)

    def delete_columns(self, col: int, count: int = 1, **kwargs):
        """Delete columns ``[col, col+count)``; references into them go ``#REF!``."""
        from .structural import apply_structural_edit

        return apply_structural_edit(self, "delete_columns", col, count, **kwargs)

    # -- dirty-set recomputation ---------------------------------------------------

    def recompute(self, dirty_ranges: Iterable[Range],
                  extra: Iterable[tuple[int, int]] | None = None) -> int:
        """Re-evaluate the formula cells of ``dirty_ranges`` in topological order.

        ``extra`` adds individual positions (e.g. an edited formula cell
        itself) to the dirty set.  This is the common tail of every
        update path that is not a point edit — batch commits, structural
        edits, journal replay: callers supply whatever dirty ranges their
        graph query produced and the engine orders and evaluates only
        those cells.  Raises :class:`CircularReferenceError` if the dirty
        subgraph contains a dependency cycle.

        On a deferred engine the cells are marked pending instead and
        the return value counts them.  Whatever the caller did to the
        sheet first may have rewired or removed formulas behind a kept
        backlog plan, so the plan is dropped and backlog cells that are
        no longer formulas are forgotten.
        """
        dirty = self._formula_cells(dirty_ranges, extra or ())
        if self.deferred:
            self._drop_vanished()
            self._plan = None
        return self._settle_or_mark(dirty)

    # -- the deferred backlog -----------------------------------------------------

    @property
    def pending(self) -> int:
        """Number of formula cells still awaiting recomputation."""
        return len(self._pending)

    def is_dirty(self, target) -> bool:
        """Whether a cell still awaits recomputation (O(1))."""
        return self._position(target) in self._pending

    def read(self, target) -> CellView:
        """Read a cell as the UI would: value plus staleness flag."""
        pos = self._position(target)
        return CellView(self.sheet.get_value(pos), pos in self._pending)

    def step(self, max_cells: int = 64) -> int:
        """Recompute the next slice of the backlog; returns how many
        cells were computed.

        The slice is cut from the plan an immediate engine would have
        executed for the same dirty set — singles and windowed /
        elementwise super-nodes in dependency order — with the budget
        checked between plan nodes, so a run is never split (the count
        may overshoot ``max_cells`` by the tail of one run).  The plan
        is ordered once and kept across steps; only an update that adds
        a cell to the backlog or changes a formula makes the next step
        order it again.  Cells in or downstream of a dependency cycle
        are assigned ``#CYCLE!`` once everything computable has been
        computed; a deferred engine never raises for them.
        """
        computed = 0
        pending = self._pending
        while pending and computed < max_cells:
            if self._plan is None:
                self._drop_vanished()
                self._plan = self._build_plan(pending, False)[0]
                self._plan.reverse()
                continue
            if not self._plan:
                # Everything orderable has run: the rest is cyclic.
                for pos in pending:
                    cell = self.sheet.formula_at(pos)
                    if cell is not None:
                        cell.value = CYCLE_ERROR
                pending.clear()
                break
            node = self._plan.pop()
            if type(node) is tuple:
                pending.discard(node)
                if self.sheet.formula_at(node) is None:
                    continue    # cleared behind the engine's back since planning
            else:
                pending.difference_update(node.member_set)
            computed += self._execute_plan((node,))
        return computed

    def drain(self, batch: int = 256) -> int:
        """Run steps until nothing is pending; returns total cells computed."""
        total = 0
        while self._pending:
            total += self.step(batch)
        return total

    def _drop_vanished(self) -> None:
        """Forget backlog cells that are no longer formulas — cleared or
        overwritten through a path that does not maintain the backlog
        (a batch commit, ``Sheet.clear_range``, a sibling engine)."""
        formula_at = self.sheet.formula_at
        self._pending.difference_update(
            [pos for pos in self._pending if formula_at(pos) is None]
        )

    # -- internals -------------------------------------------------------------------

    _position = staticmethod(_coerce_pos)

    def _formula_cells(self, dirty_ranges: Iterable[Range],
                       extra: Iterable[tuple[int, int]]) -> set[tuple[int, int]]:
        formula_at = self.sheet.formula_at
        dirty = {
            pos for pos in expand_cells(dirty_ranges) if formula_at(pos) is not None
        }
        for pos in extra:
            if formula_at(pos) is not None:
                dirty.add(pos)
        return dirty

    def _settle_or_mark(self, dirty: set[tuple[int, int]]) -> int:
        """The junction of every update path: recompute ``dirty`` now, or
        (deferred) add it to the backlog and return at once."""
        if not self.deferred:
            return self._evaluate_in_order(dirty)
        if not dirty <= self._pending:
            self._pending |= dirty
            self._plan = None
        return len(dirty)

    def _build_plan(self, dirty: set[tuple[int, int]], dispatching: bool):
        """Order ``dirty`` for execution: ``(plan, succs, cycle)``.

        ``plan`` lists ``(col, row)`` singles and run super-nodes in
        dependency order.  ``succs`` is the plan's successor adjacency
        when the super-node ordering produced it (what the partitioned
        dispatchers need, and ask for with ``dispatching``), else
        ``None``.  ``cycle`` is ``None`` for an acyclic dirty set;
        otherwise ``(cyclic, preds)`` — the cells in or downstream of a
        cycle, which ``plan`` leaves out, and the predecessor map to
        trace one chain from.
        """
        if self.evaluation == "auto" and (
            dispatching or len(dirty) >= vectorized.MIN_RUN
        ):
            runs, by_col, member_map = self._detect_runs(dirty)
            # Parallel execution partitions the *plan* (super-nodes plus
            # singles), so it needs one even when no runs were detected;
            # for an acyclic dirty set the empty-runs plan is exactly the
            # generic topological order.
            if runs or dispatching:
                plan, succs = self._order_with_runs(dirty, runs, by_col, member_map)
                if plan is not None:
                    return plan, succs, None
                if dispatching:
                    # Cycles are ordered (and marked #CYCLE!) by the
                    # generic serial path; report the bail-out.
                    self.eval_stats.serial_fallbacks += 1
                    self.eval_stats.fallback_reason = "cycle"
                # A cycle (or a self-reference) is in play somewhere: the
                # generic cell-level ordering below owns that semantics.
        order, cyclic, preds = self._topological_order(dirty)
        return order, None, (cyclic, preds) if cyclic else None

    def _evaluate_in_order(self, dirty: set[tuple[int, int]]) -> int:
        parallel = self.parallel
        if parallel is not None and not parallel.eligible(len(dirty)):
            parallel = None
        shard_rt = self.shard_runtime
        if shard_rt is not None and not shard_rt.eligible(len(dirty)):
            shard_rt = None
        plan, succs, cycle = self._build_plan(
            dirty, parallel is not None or shard_rt is not None
        )
        if succs is not None:
            # Dispatch order: resident shards, then the pooled scheduler,
            # then serial — each declines with None when it has nothing
            # to gain.
            if shard_rt is not None:
                done = shard_rt.execute(self, plan, succs)
                if done is not None:
                    return done
            if parallel is not None:
                done = parallel.execute(self, plan, succs)
                if done is not None:
                    return done
        done = self._execute_plan(plan)
        if cycle is not None:
            cyclic, preds = cycle
            for pos in cyclic:
                self.sheet.cell_at(pos).value = CYCLE_ERROR
            raise CircularReferenceError(self._trace_cycle(cyclic, preds))
        return done

    # -- windowed-run dispatch ----------------------------------------------------

    def _order_with_runs(
        self,
        dirty: set[tuple[int, int]],
        runs: list["_TemplateRun"],
        by_col: dict[int, list[int]],
        member_map: dict[tuple[int, int], "_TemplateRun"],
    ):
        """Topologically order singles and runs-as-super-nodes.

        The generic ordering materialises one edge per (window cell,
        member) pair — ``O(run x window)`` for a running-total column,
        the very cost the rolling evaluator removes.  Here a run is one
        node whose predecessors are its *blockers* (computed once from
        the union window), so ordering costs ``O(D log D + E')`` in the
        number of dirty cells and coalesced edges.  In-run prefix
        references need no edges: the rolling direction orders them.

        Returns ``(plan, succs)``: the execution plan — a list of
        ``(col, row)`` singles and :class:`_TemplateRun` /
        :class:`_ElementwiseRun` nodes — plus the successor adjacency
        over plan nodes that ordered it (the parallel partitioner's
        region graph).  ``plan`` is ``None`` when a self-reference or
        cycle is detected, in which case the caller must use the generic
        ordering (which owns ``#CYCLE!`` semantics).
        """
        preds: dict[object, int] = {}
        succs: dict[object, list[object]] = {}
        sheet_name = self.sheet.name
        formula_at = self.sheet.formula_at
        for pos in dirty:
            if pos in member_map:
                continue
            col, row = pos
            count = 0
            seen: set[object] = set()
            for ref_sheet, c1, r1, c2, r2 in formula_at(pos).template.spans_at(col, row):
                if ref_sheet is not None and ref_sheet != sheet_name:
                    continue
                if c1 <= col <= c2 and r1 <= row <= r2:
                    return None, succs  # self-reference: a one-cell cycle
                if c1 == c2 and c1 not in by_col:
                    # Single-column ref into a clean column — the
                    # overwhelmingly common shape (formulas over value
                    # inputs); skip the generator machinery entirely.
                    continue
                for prec in self._dirty_in_range(c1, r1, c2, r2, by_col):
                    if prec == pos:
                        continue
                    node = member_map.get(prec, prec)
                    if node in seen:
                        continue
                    seen.add(node)
                    count += 1
                    succs.setdefault(node, []).append(pos)
            preds[pos] = count
        for run in runs:
            count = 0
            seen = set()
            for prec in run.blockers:
                node = member_map.get(prec, prec)
                if node in seen:
                    continue
                seen.add(node)
                count += 1
                succs.setdefault(node, []).append(run)
            preds[run] = count
        ready = [node for node, count in preds.items() if count == 0]
        # Column-major order for the initially-ready nodes (the whole
        # plan, for dependency-free dirty sets): deterministic instead of
        # set-iteration order, sequential column writes, and — the real
        # payoff — spatially coherent parallel regions, so a process
        # worker's freight ships a few planes instead of a scatter of
        # every column.
        ready.sort(key=_plan_node_key, reverse=True)
        plan: list[object] = []
        while ready:
            node = ready.pop()
            plan.append(node)
            for succ in succs.get(node, ()):  # noqa: B020
                preds[succ] -= 1
                if preds[succ] == 0:
                    ready.append(succ)
        if len(plan) != len(preds):
            return None, succs          # cycle among dirty cells/runs
        return plan, succs

    @staticmethod
    def _dirty_in_range(c1: int, r1: int, c2: int, r2: int, by_col: dict[int, list[int]]):
        """Dirty positions inside ``(c1, r1)..(c2, r2)``, via per-column
        sorted rows.

        Iterates whichever is narrower — the reference's column span
        (single-column refs are the overwhelming case) or the dirty
        column set — so a wide dirty set doesn't pay a full-dict scan
        for every one-column reference.
        """
        if c1 == c2:
            rows = by_col.get(c1)
            if rows:
                lo = bisect_left(rows, r1)
                hi = bisect_right(rows, r2)
                for row in rows[lo:hi]:
                    yield (c1, row)
            return
        if c2 - c1 < len(by_col):
            cols = [(col, by_col.get(col)) for col in range(c1, c2 + 1)]
        else:
            cols = [
                (col, rows) for col, rows in by_col.items() if c1 <= col <= c2
            ]
        for col, rows in cols:
            if not rows:
                continue
            lo = bisect_left(rows, r1)
            hi = bisect_right(rows, r2)
            for row in rows[lo:hi]:
                yield (col, row)

    def _execute_plan(self, plan) -> int:
        """Evaluate an ordered plan of singles and runs."""
        stats = self.eval_stats
        count = 0
        for node in plan:
            if type(node) is tuple:
                self._evaluate_cell(node)
                count += 1
                continue
            rows = list(node.rows)
            if type(node) is _ElementwiseRun:
                swept = vectorized.evaluate_elementwise_run(
                    self.sheet, node.template, node.col, rows, self._evaluate_cell
                )
                if swept is None:
                    # No numpy / non-columnar store / unsweepable scalar:
                    # per-cell in any order (no in-run references).
                    for row in rows:
                        self._evaluate_cell((node.col, row))
                elif swept:
                    stats.elementwise_cells += swept
                    stats.elementwise_runs += 1
                count += len(rows)
                continue
            rolled = vectorized.evaluate_run(
                self.sheet, node.spec, node.col, rows, self._evaluate_cell
            )
            if rolled is None:
                # Geometry refused at the last moment: evaluate per cell,
                # respecting the rolling direction for self-references.
                descending = node.spec.tail_row.fixed and not node.spec.head_row.fixed
                for row in (reversed(rows) if descending else rows):
                    self._evaluate_cell((node.col, row))
            elif rolled:
                # `rolled` counts only cells the rolling path computed;
                # delegated cells were accounted by _evaluate_cell.
                stats.windowed_cells += rolled
                stats.windowed_runs += 1
            count += len(rows)
        return count

    def _detect_runs(self, dirty: set[tuple[int, int]]):
        """Same-template windowed runs hiding in the dirty set.

        Candidate spans come from the compressed graph's dependent ranges
        when it exposes them — the RR/FR edges *are* the autofill
        families — with the raw per-column extents appended so cells the
        graph left uncompressed (or graphs without the hook) still get
        run detection.  Each maximal consecutive stretch of cells sharing
        one windowed-aggregate template becomes a :class:`_TemplateRun`
        carrying its out-of-run dirty *blockers*; stretches whose in-run
        references do not follow the rolling direction are discarded.
        """
        by_col: dict[int, list[int]] = {}
        for c, r in dirty:
            by_col.setdefault(c, []).append(r)
        for rows in by_col.values():
            rows.sort()
        spans: list[Range] = []
        runs_of = getattr(self.graph, "dependent_column_runs", None)
        if runs_of is not None:
            c1, c2 = min(by_col), max(by_col)
            r1 = min(rows[0] for rows in by_col.values())
            r2 = max(rows[-1] for rows in by_col.values())
            spans.extend(runs_of(Range(c1, r1, c2, r2)))
        spans.extend(Range(c, rows[0], c, rows[-1]) for c, rows in by_col.items())

        runs: list[_TemplateRun] = []
        claimed: set[tuple[int, int]] = set()
        for span in spans:
            rows = by_col.get(span.c1)
            if not rows:
                continue
            lo = bisect_left(rows, span.r1)
            hi = bisect_right(rows, span.r2)
            self._stretches_in_rows(span.c1, rows[lo:hi], claimed, by_col, runs)
        member_map = {pos: run for run in runs for pos in run.member_set}
        return runs, by_col, member_map

    def _stretches_in_rows(
        self,
        col: int,
        rows: list[int],
        claimed: set[tuple[int, int]],
        by_col: dict[int, list[int]],
        out: list["_TemplateRun"],
    ) -> None:
        stretch: list[int] = []
        stretch_key: str | None = None
        stretch_template = None

        def flush() -> None:
            if stretch_template is None or len(stretch) < vectorized.MIN_RUN:
                return
            if stretch_template.window is not None:
                run = self._make_run(
                    stretch_template.window, col, list(stretch), by_col
                )
            else:
                run = self._make_elementwise_run(
                    stretch_template, col, list(stretch), by_col
                )
            if run is not None:
                claimed.update(run.member_set)
                out.append(run)

        for row in rows:
            pos = (col, row)
            if pos in claimed:              # already part of an earlier span's run
                flush()
                stretch, stretch_key, stretch_template = [], None, None
                continue
            cell = self.sheet.formula_at(pos)
            template = self.cell_evaluator.template_for_cell(cell)
            runnable = template is not None and (
                template.window is not None or template.elementwise is not None
            )
            key = template.key if runnable else None
            if key is None or key != stretch_key or (stretch and row != stretch[-1] + 1):
                flush()
                stretch = []
                stretch_key = key
                stretch_template = template if key is not None else None
            if key is not None:
                stretch.append(row)
        flush()

    def _make_run(
        self,
        spec,
        col: int,
        run_rows: list[int],
        by_col: dict[int, list[int]],
    ) -> "_TemplateRun | None":
        """Build a run if its geometry rolls and its self-references are
        ordered by the rolling direction; collect its dirty blockers.

        In-run window hits are permitted only when every member's window
        stays strictly on the already-evaluated side of the rolling
        order: strictly above the host for top-down prefix/sliding
        windows, strictly below for the bottom-up suffix shape.  Dirty
        cells inside the windows but outside the run become *blockers* —
        the super-node ordering schedules the run after all of them.
        """
        cols = vectorized.window_cols(spec, col)
        if cols is None:
            return None
        lo_first, hi_first = vectorized.window_rows_at(spec, run_rows[0])
        lo_last, hi_last = vectorized.window_rows_at(spec, run_rows[-1])
        if lo_first > hi_first or lo_last > hi_last or min(lo_first, lo_last) < 1:
            return None
        self_ok = (
            # windows strictly above their host, processed top-down
            (not spec.tail_row.fixed and spec.tail_row.value <= -1)
            # windows strictly below their host, processed bottom-up
            or (spec.tail_row.fixed and not spec.head_row.fixed
                and spec.head_row.value >= 1)
        )
        run_set = {(col, r) for r in run_rows}
        blockers: set[tuple[int, int]] = set()
        w_lo = min(lo_first, lo_last)
        w_hi = max(hi_first, hi_last)
        c1, c2 = cols
        for dirty_col, dirty_rows in by_col.items():
            if dirty_col < c1 or dirty_col > c2:
                continue
            lo = bisect_left(dirty_rows, w_lo)
            hi = bisect_right(dirty_rows, w_hi)
            for row in dirty_rows[lo:hi]:
                pos = (dirty_col, row)
                if pos in run_set:
                    if not self_ok:
                        return None
                else:
                    blockers.add(pos)
        return _TemplateRun(spec, col, run_rows, run_set, blockers)

    def _make_elementwise_run(
        self,
        template,
        col: int,
        run_rows: list[int],
        by_col: dict[int, list[int]],
    ) -> "_ElementwiseRun | None":
        """Build an elementwise run if no reference resolves into it.

        The array sweep reads every input lane before writing any output,
        so a reference into the run's own stretch (a recurrence like
        ``=C1+A2`` filled down C, or a fixed ref at a member) would read
        stale values — such stretches evaluate per cell instead.  Dirty
        cells the lanes read outside the run become blockers.
        """
        first, last = run_rows[0], run_rows[-1]
        blockers: set[tuple[int, int]] = set()
        for col_axis, row_axis in template.elementwise.refs:
            c = col_axis.at(col)
            if c < 1:
                return None             # #REF! on every member: per-cell owns it
            if row_axis.fixed:
                r = row_axis.value
                if r < 1:
                    return None
                if c == col and first <= r <= last:
                    return None         # broadcast input is a run member
                dirty_rows = by_col.get(c)
                if dirty_rows:
                    i = bisect_left(dirty_rows, r)
                    if i < len(dirty_rows) and dirty_rows[i] == r:
                        blockers.add((c, r))
                continue
            if c == col:
                return None             # in-run recurrence
            dirty_rows = by_col.get(c)
            if dirty_rows:
                lo = bisect_left(dirty_rows, first + row_axis.value)
                hi = bisect_right(dirty_rows, last + row_axis.value)
                for r in dirty_rows[lo:hi]:
                    blockers.add((c, r))
        member_set = {(col, r) for r in run_rows}
        return _ElementwiseRun(template, col, run_rows, member_set, blockers)

    def _topological_order(
        self, dirty: set[tuple[int, int]]
    ) -> tuple[
        list[tuple[int, int]],
        set[tuple[int, int]],
        dict[tuple[int, int], list[tuple[int, int]]],
    ]:
        """Kahn's algorithm over the dirty cells' reference structure.

        Returns ``(order, cyclic, pred_map)``: the evaluable cells in
        dependency order, the cells left unordered (in or downstream of a
        cycle), and the dirty-set predecessor adjacency used to extract a
        concrete offending chain.  ``O(D + R)`` for ``D`` dirty cells
        with ``R`` dirty-set reference pairs.
        """
        preds: dict[tuple[int, int], int] = {}
        pred_map: dict[tuple[int, int], list[tuple[int, int]]] = {}
        succs: dict[tuple[int, int], list[tuple[int, int]]] = {}
        dirty_list = list(dirty)
        formula_at = self.sheet.formula_at
        sheet_name = self.sheet.name
        for pos in dirty_list:
            col, row = pos
            count = 0
            for ref_sheet, c1, r1, c2, r2 in formula_at(pos).template.spans_at(col, row):
                if ref_sheet is not None and ref_sheet != sheet_name:
                    continue
                if c1 <= col <= c2 and r1 <= row <= r2:
                    # Self-reference (direct, or a range containing the
                    # cell): a one-cell cycle.  The never-decremented
                    # count keeps the cell unordered.
                    count += 1
                    pred_map.setdefault(pos, []).append(pos)
                if c1 == c2 and r1 == r2:
                    members = [(c1, r1)] if (c1, r1) in dirty and (c1, r1) != pos else ()
                elif (c2 - c1 + 1) * (r2 - r1 + 1) <= len(dirty):
                    members = [
                        p for p in Range(c1, r1, c2, r2).cells() if p in dirty and p != pos
                    ]
                else:
                    members = [
                        p for p in dirty
                        if c1 <= p[0] <= c2 and r1 <= p[1] <= r2 and p != pos
                    ]
                for member in members:
                    count += 1
                    succs.setdefault(member, []).append(pos)
                    pred_map.setdefault(pos, []).append(member)
            preds[pos] = count
        ready = [pos for pos in dirty_list if preds[pos] == 0]
        order: list[tuple[int, int]] = []
        while ready:
            pos = ready.pop()
            order.append(pos)
            for succ in succs.get(pos, ()):  # noqa: B020
                preds[succ] -= 1
                if preds[succ] == 0:
                    ready.append(succ)
        cyclic = {pos for pos in dirty_list if preds[pos] > 0}
        return order, cyclic, pred_map

    @staticmethod
    def _trace_cycle(
        cyclic: set[tuple[int, int]],
        pred_map: dict[tuple[int, int], list[tuple[int, int]]],
    ) -> list[tuple[int, int]]:
        """Walk predecessors inside the unordered set until one repeats.

        Every unordered cell has at least one unordered predecessor (that
        is what kept it unordered), so the walk always closes a cycle.
        The returned chain is in dependency order and closed: the first
        cell is repeated at the end.
        """
        start = min(cyclic)
        seen: dict[tuple[int, int], int] = {}
        chain: list[tuple[int, int]] = []
        pos = start
        while pos not in seen:
            seen[pos] = len(chain)
            chain.append(pos)
            pos = next(p for p in pred_map[pos] if p in cyclic)
        cycle = chain[seen[pos]:]
        cycle.reverse()
        return cycle + [cycle[0]]

    def _evaluate_cell(self, pos: tuple[int, int]) -> None:
        cell = self.sheet.formula_at(pos)
        if self.evaluation == "auto":
            value = self.cell_evaluator.evaluate_cell(
                cell, self.sheet.name, pos[0], pos[1]
            )
        else:
            value = self.cell_evaluator.interpret_cell(
                cell, self.sheet.name, pos[0], pos[1]
            )
        cell.value = value

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
from functools import partial
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple

from ..core.taco_graph import build_from_sheet
from ..formula.compile import (
    CompilingEvaluator,
    ElementwiseIR,
    LookupSpec,
    TemplateRegistry,
    WindowSpec,
)
from ..formula.errors import CYCLE_ERROR
from ..graphs.base import FormulaGraph
from ..grid.range import Range
from ..sheet.sheet import Sheet, SheetResolver, _coerce_pos
from . import lookup, vectorized
from .edits import ClearCell, ClearRange, Edit, SetFormula, SetValue, Structural, cell_edit
from .structural import apply_structural_edit

if TYPE_CHECKING:  # pragma: no cover
    from .batch import BatchEditSession

__all__ = [
    "CellView",
    "CircularReferenceError",
    "RecalcEngine",
    "RecalcResult",
    "UpdateTicket",
]


#: Sorts after every ``last_row`` when bisecting a column's runs by row.
_INF = float("inf")


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


class _Strip:
    """One plan node that is more than a cell: rows ``rows`` (a
    ``range``, ascending and consecutive) of column ``col``, all members
    of one template and all dirty, executed as a unit.

    ``kind`` names the strip kernel that runs it (``_KINDS``): ``"w"``
    rolls a windowed aggregate along the strip, ``"e"`` sweeps float
    arithmetic, comparisons and ``IF`` over every lane at once, ``"c"``
    scans a recurrence on the row before down one float loop, ``"l"``
    probes one lookup index per lane, ``"s"`` — any other template —
    loops over the members with the compiled closure (``template``).
    References that land inside the strip itself are ordered by the
    direction of that loop, bottom-up when ``descending``; everything
    else a member reads is a predecessor *node* in the plan.
    """

    __slots__ = ("kind", "col", "rows", "template", "descending")

    def __init__(self, kind: str, col: int, rows: range, template, descending: bool):
        self.kind = kind
        self.col = col
        self.rows = rows
        self.template = template
        self.descending = descending

    def members(self) -> list[tuple[int, int]]:
        col = self.col
        return [(col, row) for row in self.rows]

    def lanes(self) -> range:
        """The strip's rows in its direction."""
        return self.rows[::-1] if self.descending else self.rows

    def spec(self) -> tuple:
        """The strip as picklable freight (see ``strip_from_spec``)."""
        return (self.kind, self.col, self.rows[0], self.rows[-1], self.descending)

    def cut(self, rows: range) -> "_Strip":
        """The same strip over a slice of its rows."""
        return _Strip(self.kind, self.col, rows, self.template, self.descending)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"_Strip({self.kind!r} col={self.col} rows={self.rows[0]}..{self.rows[-1]}"
            f"{' descending' if self.descending else ''})"
        )


class _SelfReference(Exception):
    """Planning met a formula whose reference holds its own host: the
    generic cell ordering owns what happens next (``#CYCLE!``)."""


def _plan_node_key(node) -> tuple[int, int]:
    """(col, first row) of a plan node — singles and strips alike."""
    if type(node) is tuple:
        return node
    return (node.col, node.rows[0])


def _closure_kernel(engine: "RecalcEngine", node: _Strip, leave) -> int:
    """The ``s`` kernel: every lane is the closure's."""
    leave(node.lanes())
    return 0


class _Kind(NamedTuple):
    """How a strip of one kind runs (the kernel contract is in
    :mod:`repro.engine.vectorized`)."""

    kernel: Callable            # kernel(engine, node, leave) -> lanes computed
    cells: str | None           # EvalStats counter of the lanes computed
    runs: str | None            # ... and of the strips that computed any
    cuttable: bool              # whether step(budget) may cut the strip


_KINDS = {
    "w": _Kind(vectorized.evaluate_run, "windowed_cells", "windowed_runs", False),
    "e": _Kind(vectorized.evaluate_elementwise_run,
               "elementwise_cells", "elementwise_runs", False),
    "c": _Kind(vectorized.evaluate_scan_run, "elementwise_cells", "elementwise_runs", True),
    "l": _Kind(lookup.evaluate_lookup_run, "compiled_cells", None, True),
    "s": _Kind(_closure_kernel, None, None, True),
}


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
        if worker_mode not in (None, "thread", "process"):
            raise ValueError(f"unknown worker mode {worker_mode!r}")
        self._arm(sheet, evaluation, registry, lookup_indexes)
        #: ``False`` — every update settles its dirty set before it
        #: returns; ``True`` — updates return at the control-return point
        #: with their dirty set added to the pending backlog.
        self.deferred = deferred
        #: Optional :class:`~repro.engine.journal.Journal`: every committed
        #: mutation (cell edit, batch commit, structural op) appends one
        #: durable record before dependents are recomputed.
        self.journal = journal
        self.graph = build_from_sheet(sheet) if graph is None else graph
        if shards is None and workers is None:
            shards = int(os.environ.get("REPRO_RECALC_SHARDS", "0") or 0)
        #: One dispatch count under two spellings (``shards=N`` or
        #: ``workers=N``, whatever ``worker_mode`` says), also the default
        #: scenario fan-out (:meth:`ScenarioEngine.run`).
        self.workers = int(shards or workers or 0)
        #: The resident runtime (``repro.engine.shard``), the one
        #: dispatcher: auto mode only (the interpreter is the differential
        #: oracle and is never itself partitioned).  Dirty sets under
        #: ``parallel_min_dirty`` (default 64) run serially.
        self.shard_runtime = None
        if self.workers > 1 and self.evaluation == "auto":
            from .shard import ShardRuntime

            self.shard_runtime = ShardRuntime(
                self.workers, 64 if parallel_min_dirty is None else parallel_min_dirty
            )

    def _arm(self, sheet: Sheet, evaluation: str, registry: TemplateRegistry | None,
             lookup_indexes: bool | None) -> None:
        """The engine's sheet, empty backlog and evaluation tiers — what
        :meth:`__init__` and :meth:`plan_executor` share, so a shadow
        engine arms its tiers exactly as its parent does."""
        if evaluation not in ("auto", "interpreter"):
            raise ValueError(f"unknown evaluation mode {evaluation!r}")
        self.sheet = sheet
        self._pending: set[tuple[int, int]] = set()
        #: The backlog's execution plan as a stack (next node last), or
        #: ``None`` when the next :meth:`step` has to build one — and the
        #: sheet's formula-plane version it was laid out against.
        self._plan: list | None = None
        self._plan_version: int | None = None
        #: ``"auto"`` — compiled templates and strip kernels;
        #: ``"interpreter"`` — tree-walker only (the differential oracle).
        self.evaluation = evaluation
        self.cell_evaluator = CompilingEvaluator(SheetResolver(sheet), registry=registry)
        self.eval_stats = self.cell_evaluator.stats
        self.evaluator = self.cell_evaluator.interpreter
        #: Range aggregates read the planes by slice and lookups probe
        #: lookaside indexes (``repro.engine.lookup``) in auto mode only:
        #: ``evaluation="interpreter"`` remains a walk-and-scan
        #: differential oracle.
        if evaluation == "auto":
            self.cell_evaluator.resolver.read_by_plane()
            if lookup_indexes is None or lookup_indexes:
                lookup.attach_probe(self.cell_evaluator, sheet)

    @property
    def lookup_indexes(self) -> bool:
        """Whether this engine's lookups probe lookaside indexes — what
        the shadow engines that execute its plans elsewhere are told."""
        return self.cell_evaluator.resolver.lookup_probe is not None

    @classmethod
    def plan_executor(cls, sheet: Sheet, *, evaluation: str = "auto",
                      registry: TemplateRegistry | None = None,
                      lookup_indexes: bool | None = None) -> "RecalcEngine":
        """A graph-less shadow engine that can only run pre-built plans.

        Plan execution in resident workers (:mod:`repro.engine.shard`)
        needs the evaluation tiers — compiled templates, windowed rolls,
        elementwise sweeps, scans, lookup probes — without graph
        maintenance, journaling, or further partitioning.  The shadow
        shares the parent's template registry (pass ``registry=``) so
        compilation work is not repeated per region, and its setting for
        lookup indexes (``lookup_indexes=``), but owns a fresh
        :class:`~repro.formula.compile.EvalStats` whose counters the
        parent merges in deterministically after the region completes.
        """
        engine = cls.__new__(cls)
        engine._arm(sheet, evaluation, registry, lookup_indexes)
        engine.deferred = False
        engine.journal = None
        engine.graph = None
        engine.workers = 0
        engine.shard_runtime = None
        return engine

    # -- full recomputation ----------------------------------------------------

    def recalculate_all(self) -> int:
        """Evaluate every formula cell from scratch, in dependency order
        (at once even on a deferred engine, whose backlog it settles)."""
        self._pending.clear()
        self._plan = None
        return self._evaluate_in_order(None)

    # -- updates ------------------------------------------------------------------

    def apply(self, edit: Edit, *, workbook=None, **kwargs):
        """Apply one :mod:`~repro.engine.edits` edit end to end.

        A cell edit validates, mutates sheet and graph, journals, finds
        its dependents and settles them (:class:`RecalcResult`) or,
        deferred, marks them (:class:`UpdateTicket`); it moves nothing,
        so it ignores ``workbook=`` and takes no other keyword.  A
        :class:`Structural` edit runs
        :func:`~repro.engine.structural.apply_structural_edit` with the
        keywords.  A :class:`ClearRange` exists only inside a batch
        (:meth:`begin_batch`).
        """
        if isinstance(edit, Structural):
            return apply_structural_edit(self, edit, workbook=workbook, **kwargs)
        if isinstance(edit, ClearRange):
            raise TypeError("a range clear is a batch edit: use begin_batch()")
        if kwargs:
            raise TypeError(f"a cell edit takes no {sorted(kwargs)} keywords")
        start = time.perf_counter()
        edit.check(self.journal is not None)
        self.mutate(edit)
        if self.journal is not None:
            self.journal.append_edits(self.sheet.name, (edit,))
        dirty_ranges = self.graph.find_dependents(Range.cell(*edit.pos))
        control_return = time.perf_counter() - start
        dirty = self._formula_cells(
            dirty_ranges, (edit.pos,) if type(edit) is SetFormula else ()
        )
        done = self._settle_or_mark(dirty)
        total = time.perf_counter() - start
        if self.deferred:
            return UpdateTicket(dirty_ranges, done, total, len(self._pending))
        return RecalcResult(
            dirty_ranges, sum(r.size for r in dirty_ranges), done,
            control_return, total,
        )

    def set_value(self, target, value) -> "RecalcResult | UpdateTicket":
        """Change a pure value and refresh its dependents."""
        return self.apply(SetValue(target, value))

    def set_formula(self, target, text: str) -> "RecalcResult | UpdateTicket":
        """Change a formula: maintain the graph (clear + insert, Sec.
        IV-C), then refresh the cell and its dependents."""
        return self.apply(SetFormula(target, text))

    def clear_cell(self, target) -> "RecalcResult | UpdateTicket":
        """Erase a cell entirely and refresh its dependents."""
        return self.apply(ClearCell(target))

    # -- shared mutation core ------------------------------------------------------

    def mutate(self, edit: "SetValue | SetFormula | ClearCell") -> None:
        """Sheet write + graph maintenance for one cell edit — no journal
        record, no recomputation.

        The shared core of the point edits *and* of journal replay
        (:mod:`repro.engine.journal`), so a recovered graph is maintained
        by definition exactly like the live one was.
        """
        pos = edit.pos
        before = self.sheet.formula_at(pos)
        if type(edit) is SetValue and before is None:
            edit.write(self.sheet)      # no formula here: no edges, no backlog
            return
        self._pending.discard(pos)      # a new formula is re-marked by its own edit
        formula = type(edit) is SetFormula
        old = before.template if formula and before is not None else None
        edit.write(self.sheet)
        template = self.sheet.formula_at(pos).template if formula else None
        if template is not None and template is old:
            # The same interned template at the same host reads the same
            # cells: clearing and re-inserting its edges would only split
            # the compressed edge it sits in.
            return
        # A formula's stale edges would keep reporting dependents of a
        # formula that no longer exists.
        self.graph.clear_cells(Range.cell(*pos))
        if template is not None:
            for dep in self.sheet.dependencies_at(template, *pos):
                self.graph.add_dependency(dep)

    def apply_cell_mutation(self, pos: tuple[int, int], op: str, payload) -> None:
        """:meth:`mutate` spelled with the journal's op strings."""
        self.mutate(cell_edit(op, pos, payload))

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
        """Insert ``count`` blank rows before ``row``, end-to-end: sheet
        rewrite, incremental graph maintenance and dirty recalculation
        (``workbook=`` rewrites sibling sheets' references too).  Returns
        a :class:`~repro.engine.structural.StructuralEditResult`."""
        return self.apply(Structural("insert_rows", row, count), **kwargs)

    def delete_rows(self, row: int, count: int = 1, **kwargs):
        """Delete rows ``[row, row+count)``; references into them go ``#REF!``."""
        return self.apply(Structural("delete_rows", row, count), **kwargs)

    def insert_columns(self, col: int, count: int = 1, **kwargs):
        """Insert ``count`` blank columns before ``col``, end-to-end."""
        return self.apply(Structural("insert_columns", col, count), **kwargs)

    def delete_columns(self, col: int, count: int = 1, **kwargs):
        """Delete columns ``[col, col+count)``; references into them go ``#REF!``."""
        return self.apply(Structural("delete_columns", col, count), **kwargs)

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
        executed for the same dirty set — cells and column strips in
        dependency order.  A scalar strip is just ordered cells and is
        split at the budget, and so are a scan, whose later slice seeds
        from the row the earlier one wrote, and a lookup strip; a
        windowed or elementwise strip never is (its count may overshoot
        ``max_cells`` by the tail of the strip).  The plan is ordered
        once and kept across steps; only an update that adds a cell to
        the backlog or changes a formula — through this engine or behind
        its back, which the sheet's formula-plane version gives away —
        makes the next step order it again.  Cells in or downstream of a dependency cycle are
        assigned ``#CYCLE!`` once everything computable has been
        computed; a deferred engine never raises for them.
        """
        computed = 0
        pending = self._pending
        if self._plan_version != self.sheet.formula_version:
            self._plan = None
        while pending and computed < max_cells:
            if self._plan is None:
                self._drop_vanished()
                self._plan = self._build_plan(pending, False)[0]
                self._plan.reverse()
                self._plan_version = self.sheet.formula_version
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
            else:
                room = max_cells - computed
                if _KINDS[node.kind].cuttable and len(node.rows) > room:
                    rows = node.rows
                    now, later = (
                        (rows[-room:], rows[:-room]) if node.descending
                        else (rows[:room], rows[room:])
                    )
                    self._plan.append(node.cut(later))
                    node = node.cut(now)
                pending.difference_update(node.members())
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
        (a batch commit, ``Sheet.clear_range``, a sibling engine).  None
        can have gone while the formula plane stands at the version the
        kept plan was laid out at."""
        if self.sheet.formula_version == self._plan_version:
            return
        formula_at = self.sheet.formula_at
        self._pending.difference_update(
            [pos for pos in self._pending if formula_at(pos) is None]
        )

    # -- internals -------------------------------------------------------------------

    _position = staticmethod(_coerce_pos)

    def _formula_cells(self, dirty_ranges: Iterable[Range],
                       extra: Iterable[tuple[int, int]]) -> set[tuple[int, int]]:
        dirty = self.sheet.formula_positions(dirty_ranges)
        formula_at = self.sheet.formula_at
        dirty.update(pos for pos in extra if formula_at(pos) is not None)
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

    def _build_plan(self, dirty: "set[tuple[int, int]] | None", dispatching: bool):
        """Order ``dirty`` — None for every formula cell of the sheet —
        for execution: ``(plan, succs, cycle)``.

        ``plan`` lists ``(col, row)`` cells and :class:`_Strip` nodes in
        dependency order.  ``succs`` is the plan's successor adjacency
        when the strip planner produced it (what the resident runtime
        needs, and asks for with ``dispatching``), else
        ``None``.  ``cycle`` is ``None`` for an acyclic dirty set;
        otherwise ``(cyclic, preds)`` — the cells in or downstream of a
        cycle, which ``plan`` leaves out, and the predecessor map to
        trace one chain from.

        A handful of dirty cells (fewer than a run is worth) goes
        straight to the generic cell ordering without touching the
        sheet's run index; so does an interpreter engine, the oracle.
        """
        if self.evaluation == "auto" and (
            dirty is None or dispatching or len(dirty) >= vectorized.MIN_RUN
        ):
            planned = self._plan_strips(dirty)
            if planned is not None:
                return planned[0], planned[1], None
            if dispatching:
                # Cycles are ordered (and marked #CYCLE!) by the generic
                # serial path; report the bail-out.
                self.eval_stats.serial_fallbacks += 1
                self.eval_stats.fallback_reason = "cycle"
        if dirty is None:
            dirty = {
                (col, row) for _, col, first, last in self.sheet.formula_runs()
                for row in range(first, last + 1)
            }
        order, cyclic, preds = self._topological_order(dirty)
        return order, None, (cyclic, preds) if cyclic else None

    def _evaluate_in_order(self, dirty: "set[tuple[int, int]] | None") -> int:
        dispatcher = self.shard_runtime
        if dispatcher is not None:
            size = self.sheet.formula_count if dirty is None else len(dirty)
            if size < dispatcher.min_dirty:
                dispatcher = None
        plan, succs, cycle = self._build_plan(dirty, dispatcher is not None)
        if succs is not None and dispatcher is not None:
            # The dispatcher declines with None when it has nothing to gain.
            done = dispatcher.execute(self, plan, succs)
            if done is not None:
                return done
        done = self._execute_plan(plan)
        if cycle is not None:
            cyclic, preds = cycle
            for pos in cyclic:
                self.sheet.cell_at(pos).value = CYCLE_ERROR
            raise CircularReferenceError(self._trace_cycle(cyclic, preds))
        return done

    # -- the strip planner ---------------------------------------------------------

    def _plan_strips(self, dirty: "set[tuple[int, int]] | None"):
        """Plan by families: ``(plan, succs)`` over cells and
        :class:`_Strip` nodes, or None when a self-reference or a cycle
        among cells is in play (the generic ordering owns ``#CYCLE!``).

        The unit is the sheet's run index (:meth:`Sheet.run_index`), not
        the cell: the whole plane is its runs as they are, a dirty set is
        each column's sorted dirty rows merged against that column's
        runs — integer compares, no cell looked up.  Either way a
        stretch of one template is cut where its references change shape
        (:meth:`FormulaTemplate.run_pieces`), and each piece of two or
        more cells becomes a strip, or cells again if no single direction
        orders it (:meth:`_make_strip`).
        """
        index = self.sheet.run_index()
        if dirty is None:
            stretches = (
                (col, first, last, family)
                for col, runs in index.items() for first, last, family in runs
            )
        else:
            stretches = self._dirty_stretches(dirty, index)
        entries: list[tuple] = []       # (node, family, col, first, last), column-major
        try:
            for col, first, last, family in stretches:
                if first == last:
                    entries.append(((col, first), family, col, first, first))
                    continue
                for a, b in family.run_pieces(col, first, last):
                    strip = self._make_strip(family, col, a, b) if b > a else None
                    if strip is not None:
                        entries.append((strip, family, col, a, b))
                    else:
                        entries.extend(
                            ((col, row), family, col, row, row) for row in range(a, b + 1)
                        )
            return self._order_entries(entries)
        except _SelfReference:
            return None

    @staticmethod
    def _dirty_stretches(dirty, index):
        """``(col, first, last, family)`` for every maximal stretch of
        consecutive dirty rows inside one run, column-major.  Every dirty
        position must be a formula cell (callers filter)."""
        by_col: dict[int, list[int]] = {}
        for col, row in dirty:
            rows = by_col.get(col)
            if rows is None:
                by_col[col] = [row]
            else:
                rows.append(row)
        for col in sorted(by_col):
            rows = by_col[col]
            rows.sort()
            runs = index[col]
            i, n = 0, len(rows)
            while i < n:
                _, last, family = runs[bisect_right(runs, (rows[i], _INF)) - 1]
                stop = bisect_right(rows, last, i)      # rows[i:stop] sit in this run
                while i < stop:
                    j = stop
                    if rows[j - 1] - rows[i] != j - 1 - i:   # a clean gap somewhere
                        j = i + 1
                        while rows[j] == rows[j - 1] + 1:
                            j += 1
                    yield col, rows[i], rows[j - 1], family
                    i = j

    def _make_strip(self, family, col: int, first: int, last: int) -> "_Strip | None":
        """Rows ``first..last`` of ``col`` — members of ``family``, all
        dirty — as one strip, or None when only cell order can sort them
        out.

        What decides is where the members' references land *inside* the
        strip, read off the ``RefSpec`` row offsets: all strictly above
        their host → the strip runs top-down, all strictly below →
        bottom-up, nothing inside → any order.  References pointing both
        ways take it apart (None).  A reference that holds its own host —
        a corner on the host's row, the host between the corners, or a
        fixed row inside the strip, which the member on that row reads
        itself through — raises :class:`_SelfReference`.

        The template's shape picks the kernel.  A lookup whose needle is
        not in the strip's own column probes (``l``).  From ``MIN_RUN``
        cells, a window rolls (``w``) if its geometry does and the
        rolling direction is the one required; an elementwise template
        sweeps (``e``) if nothing lands inside (the sweep reads every
        lane before it writes any), and scans (``c``) if all that lands
        inside is its own column one row back in the strip's direction
        (:func:`vectorized.scans`).  Anything else is scalar (``s``).
        """
        name = self.sheet.name
        down = up = False
        for spec in family.refs:
            if spec.sheet is not None and spec.sheet != name:
                continue
            c1, c2 = spec.columns_at(col)
            if c1 > col or c2 < col:
                continue
            above = None
            for axis in (spec.head_row, spec.tail_row):
                if axis.fixed:
                    if first <= axis.value <= last:
                        raise _SelfReference
                    side = axis.value < first
                elif axis.value == 0:
                    raise _SelfReference
                else:
                    side = axis.value < 0
                if above is None:
                    above = side
                elif above != side:
                    raise _SelfReference    # the host sits between the corners
            # Strictly above every host: lands inside iff the last
            # member's reference reaches back to the first row.
            if above:
                down = down or spec.span_at(col, last)[4] >= first
            else:
                up = up or spec.span_at(col, first)[2] <= last
        if down and up:
            return None
        compiled = self.cell_evaluator.registry.template_for(
            family.key, family.ast, family.col, family.row
        )
        kind, descending = "s", up
        shape = compiled.shape
        if type(shape) is LookupSpec:
            if shape.needle_col.at(col) != col:
                kind = "l"
        elif last - first + 1 >= vectorized.MIN_RUN:
            if type(shape) is WindowSpec:
                rolls_up = shape.tail_row.fixed and not shape.head_row.fixed
                if (
                    vectorized.rolling_cols(shape, col, first, last) is not None
                    and not (down and rolls_up) and not (up and not rolls_up)
                ):
                    kind, descending = "w", rolls_up
            elif type(shape) is ElementwiseIR:
                if not (down or up):
                    kind = "e"
                elif vectorized.scans(shape, col, first, last, up):
                    kind = "c"
        return _Strip(kind, col, range(first, last + 1), compiled, descending)

    def _order_entries(self, entries: list[tuple]):
        """Kahn's algorithm over plan nodes: ``(plan, succs)``, or None
        for a cycle among cells.

        A node's predecessors are the nodes that the union rectangle of
        each of its references — over all its rows; the corners are
        linear in the host row, so the first and last member bound it —
        meets, found by bisect in the per-column node lists: ``O(N log N
        + E)`` in nodes and coalesced edges, where a strip of any length
        is one node.  References into the strip itself need no edge; its
        direction orders them.  Initially-ready nodes go column-major:
        deterministic, sequential column writes, and spatially coherent
        shard waves.

        When the order stalls, strips are over-approximations: columns
        that feed each other row by row are a cycle of strips and no
        cycle of cells.  The strips in the knot — stalled nodes that are
        not merely downstream of it — are taken apart into cells and the
        ordering starts over; unrelated strips stay whole.  A knot of
        cells alone is a true cycle.
        """
        columns: dict[int, tuple[list[int], list[int], list]] = {}
        for node, _family, col, first, last in entries:
            column = columns.get(col)
            if column is None:
                column = columns[col] = ([], [], [])
            column[0].append(first)
            column[1].append(last)
            column[2].append(node)
        name = self.sheet.name
        preds: dict[object, int] = {}
        succs: dict[object, list[object]] = {}
        for node, family, col, first, last in entries:
            seen: set[object] = set()
            for spec in family.refs:
                ref_sheet, c1, lo, c2, hi = spec.span_at(col, first)
                if ref_sheet is not None and ref_sheet != name:
                    continue
                if last != first:
                    _, _, lo_last, _, hi_last = spec.span_at(col, last)
                    lo, hi = min(lo, lo_last), max(hi, hi_last)
                elif c1 <= col <= c2 and lo <= first <= hi:
                    raise _SelfReference
                if c1 == c2:
                    hit = (c1,) if c1 in columns else ()
                elif c2 - c1 < len(columns):
                    hit = [c for c in range(c1, c2 + 1) if c in columns]
                else:
                    hit = [c for c in columns if c1 <= c <= c2]
                for c in hit:
                    firsts, lasts, nodes = columns[c]
                    i = bisect_left(lasts, lo)
                    stop = bisect_right(firsts, hi)
                    for prec in nodes[i:stop]:
                        if prec is not node and prec not in seen:
                            seen.add(prec)
                            succs.setdefault(prec, []).append(node)
            preds[node] = len(seen)
        ready = [node for node, count in preds.items() if count == 0]
        ready.sort(key=_plan_node_key, reverse=True)
        plan: list[object] = []
        while ready:
            node = ready.pop()
            plan.append(node)
            for succ in succs.get(node, ()):  # noqa: B020
                preds[succ] -= 1
                if preds[succ] == 0:
                    ready.append(succ)
        if len(plan) == len(preds):
            return plan, succs
        # Stalled.  Peel off what nothing stalled waits for, repeatedly:
        # what is left lies on a cycle or between two.
        stalled = {node for node, count in preds.items() if count}
        waiting: dict[object, list[object]] = {node: [] for node in stalled}
        for node in stalled:
            for succ in succs.get(node, ()):
                if succ in stalled:
                    waiting[succ].append(node)
        blocks = {
            node: sum(1 for succ in succs.get(node, ()) if succ in stalled)
            for node in stalled
        }
        loose = [node for node, count in blocks.items() if count == 0]
        while loose:
            node = loose.pop()
            stalled.discard(node)
            for prec in waiting[node]:
                blocks[prec] -= 1
                if blocks[prec] == 0:
                    loose.append(prec)
        knot = {node for node in stalled if type(node) is not tuple}
        if not knot:
            return None
        apart: list[tuple] = []
        for entry in entries:
            node, family, col = entry[:3]
            if node in knot:
                apart.extend(((col, row), family, col, row, row) for row in node.rows)
            else:
                apart.append(entry)
        return self._order_entries(apart)

    def _execute_plan(self, plan) -> int:
        """Evaluate an ordered plan of cells and strips, each strip by its
        kind's kernel (``_KINDS``): the lanes a kernel computed count
        here, the lanes it left in :meth:`_leave`."""
        stats = self.eval_stats
        count = 0
        for node in plan:
            if type(node) is tuple:
                self._evaluate_cell(node)
                count += 1
                continue
            kind = _KINDS[node.kind]
            done = kind.kernel(self, node, partial(self._leave, node))
            if done:
                setattr(stats, kind.cells, getattr(stats, kind.cells) + done)
                if kind.runs is not None:
                    setattr(stats, kind.runs, getattr(stats, kind.runs) + 1)
            count += len(node.rows)
        return count

    def _leave(self, node: _Strip, rows) -> None:
        """The kernels' ``leave``: ``rows`` (a sequence) of strip ``node``
        through the closure, in the order given — closure, resolver,
        column and writer fetched once, each cell what
        :meth:`_evaluate_cell` would have made it and counted as it
        would have."""
        col = node.col
        compiled = node.template
        store = self.sheet._cells
        run = compiled.run
        resolver = self.cell_evaluator.resolver
        name = self.sheet.name
        column = store.ensure_column(col, node.rows[-1])
        write = store._write_raw
        for row in rows:
            write(column, row - 1, run(resolver, name, col, row))
        self.eval_stats.compiled_cells += len(rows)

    def strip_from_spec(self, spec: tuple) -> _Strip:
        """:meth:`_Strip.spec` freight back into a node, against this
        engine's sheet and registry (ordering was resolved where the spec
        was made)."""
        kind, col, first, last, descending = spec
        compiled = self.cell_evaluator.template_for_cell(
            self.sheet.formula_at((col, first))
        )
        return _Strip(kind, col, range(first, last + 1), compiled, descending)

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

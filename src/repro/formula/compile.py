"""Formula templates compiled once, evaluated per cell.

The paper's compression story is that autofill makes formulae *families*:
10,000 cells of a running-total column are one R1C1 template
(``SUM(R1C1:RC[-1])``) instantiated at 10,000 positions.  The
tree-walking :class:`~repro.formula.evaluator.Evaluator` re-discovers
that structure on every evaluation — an isinstance chain per AST node
per cell.  This module removes the repeated discovery:

* each formula is normalised to its R1C1 template key
  (:func:`~repro.formula.r1c1.to_r1c1`);
* the first time a key is seen, the template is *compiled* into a tree
  of specialised Python closures over ``(resolver, sheet, col, row)`` —
  cell references become precomputed column/row deltas, operators and
  function impls are bound once;
* every later cell with the same key (the other 9,999 rows) reuses the
  compiled closure from a bounded :class:`TemplateRegistry`.

Every formula that parses compiles.  Operators and builtins are declared
once, in :mod:`repro.formula.functions` (``OPERATORS``, ``REGISTRY``):
an operator's closure calls its table entry's scalar form, an eager call
its impl, and a lazy call (IF, AND, ROW, ...) its one definition, handed
the argument nodes and a context whose ``eval`` runs each argument's
precompiled closure.  An unknown name compiles to a closure that raises
``#NAME?``, a wrong argument count to one that raises ``#VALUE!``.  The
tree-walking interpreter runs the same declarations, so results (values
*and* error propagation) are observationally identical; it stays as the
``evaluation="interpreter"`` oracle, and
``tests/engine/test_eval_differential.py`` pins the identity.

A template may also carry one *shape* (:attr:`CompiledTemplate.shape`):
a :class:`WindowSpec` for one aggregate over one sliding or growing
range, an :class:`ElementwiseIR` for float arithmetic over cell refs, a
:class:`LookupSpec` for a lookup of one relative cell in a fixed table.
The shape is what lets the recalculation engine run a whole strip of
cells as one kernel (:mod:`repro.engine.vectorized`,
:mod:`repro.engine.lookup`) instead of one closure call per cell.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from ..grid.range import Range
from .ast_nodes import (
    BinaryOp,
    Boolean,
    CellNode,
    ErrorLiteral,
    FunctionCall,
    Node,
    Number,
    RangeNode,
    String,
    UnaryOp,
)
from .errors import NAME_ERROR, REF_ERROR, VALUE_ERROR, ExcelError
from .evaluator import EvalContext, Evaluator
from .functions import OPERATORS, REGISTRY
from .r1c1 import to_r1c1
from .references import AxisRef, axis_refs
from .values import CellResolver, ErrorSignal, RangeValue, to_number

__all__ = [
    "AxisRef",
    "CompiledTemplate",
    "CompilingEvaluator",
    "ElementwiseIR",
    "EvalStats",
    "LookupSpec",
    "TemplateRegistry",
    "WindowSpec",
    "compile_template",
    "default_registry",
    "elementwise_ir",
    "lookup_spec",
]

# A compiled sub-expression: (resolver, sheet, col, row) -> runtime value.
# Errors travel as ErrorSignal exactly as in the interpreter.
_Closure = Callable[[CellResolver, "str | None", int, int], object]


class _Unsupported(Exception):
    """Internal: the template has no fast shape of this kind."""


class WindowSpec(NamedTuple):
    """A template of the form ``AGG(range)`` — a windowed aggregate.

    ``func`` is the canonical aggregate name (SUM/COUNT/AVERAGE/MIN/MAX);
    the four :class:`AxisRef` fields locate the window corners relative
    to the host cell.  Per host row ``r`` (a column run), the window rows
    are ``[head_row.at(r), tail_row.at(r)]``: fixed head + relative tail
    is the growing prefix window, both relative is the sliding window.
    """

    func: str
    head_col: AxisRef
    head_row: AxisRef
    tail_col: AxisRef
    tail_row: AxisRef


_WINDOW_FUNCS = {
    "SUM": "SUM",
    "COUNT": "COUNT",
    "AVERAGE": "AVERAGE",
    "AVG": "AVERAGE",
    "MIN": "MIN",
    "MAX": "MAX",
}


class ElementwiseIR(NamedTuple):
    """A template body that is float64 arithmetic, comparisons and ``IF``
    over cell refs.

    ``root`` is a tuple tree — ``("const", x)``, ``("ref", i)`` (an index
    into ``refs``), ``(operator, a)`` and ``(operator, a, b)`` for an
    :class:`~repro.formula.functions.Operator` entry of ``OPERATORS``
    that has a lane form, and ``("if", cond, then, otherwise)`` —
    mirroring the compiled closure tree node for node, so a lane-wise
    evaluation of it performs exactly the same IEEE-754 operations in
    exactly the same order as the per-cell closure.  ``refs`` are the
    distinct cell references as ``(col_axis, row_axis)`` :class:`AxisRef`
    pairs.

    The subset is chosen so a whole same-template run can evaluate as
    one column kernel (:mod:`repro.engine.vectorized`: a sweep when
    nothing the run reads lies inside it, a scan when its own column one
    row back does) with bit-identical results on lanes whose inputs are
    plain floats where the tree reads them — any other lane
    (strings that might coerce, errors that must propagate, ``/0``
    lanes, off-sheet rows) goes back to the per-cell path.  A comparison
    yields a logical, so it may be an ``IF`` condition or an arithmetic
    operand (``to_number`` makes it 1.0 / 0.0) but not a value or a side
    of another comparison; an ``IF`` branch that is a bare reference
    yields the referenced value itself, which matches a float only where
    it is a number.  An operator is in the subset if and only if its
    entry has a lane form (``^`` and ``&`` have none).
    """

    root: object
    refs: tuple[tuple[AxisRef, AxisRef], ...]


def _elementwise_node(node: Node, host_col: int, host_row: int,
                      refs: list[tuple[AxisRef, AxisRef]]):
    """``(ir node, logical)``: the lowered node, and whether the closure
    makes a logical of it (a comparison or a TRUE / FALSE literal)."""
    if isinstance(node, Number):
        return ("const", float(node.value)), False
    if isinstance(node, Boolean):
        return ("const", 1.0 if node.value else 0.0), True
    if isinstance(node, CellNode):
        if node.sheet is not None:
            raise _Unsupported("elementwise: sheet-qualified reference")
        pair = axis_refs(node.ref, host_col, host_row)
        try:
            index = refs.index(pair)
        except ValueError:
            index = len(refs)
            refs.append(pair)
        return ("ref", index), False
    if isinstance(node, (UnaryOp, BinaryOp)):
        operands = node.children()
        operator = OPERATORS[node.op, len(operands)]
        if operator.lane is None:
            raise _Unsupported(f"elementwise: operator {node.op!r}")
        lowered = [_elementwise_node(child, host_col, host_row, refs) for child in operands]
        if operator.compares and any(logical for _, logical in lowered):
            raise _Unsupported("elementwise: a logical compared")   # logicals rank above numbers
        return (operator, *(ir for ir, _ in lowered)), operator.compares
    if isinstance(node, FunctionCall) and node.name == "IF" and len(node.args) == 3:
        cond, _ = _elementwise_node(node.args[0], host_col, host_row, refs)
        then, logical_then = _elementwise_node(node.args[1], host_col, host_row, refs)
        otherwise, logical_otherwise = _elementwise_node(node.args[2], host_col, host_row, refs)
        if logical_then or logical_otherwise:
            raise _Unsupported("elementwise: IF yielding a logical")
        return ("if", cond, then, otherwise), False
    raise _Unsupported(f"elementwise: {type(node).__name__}")


def _bare(node) -> bool:
    """Whether every value ``node`` can yield is a leaf itself: a
    constant, a referenced value, or an ``IF`` choosing among those."""
    if node[0] == "if":
        return _bare(node[2]) and _bare(node[3])
    return node[0] in ("const", "ref")


def elementwise_ir(ast: Node, host_col: int, host_row: int) -> ElementwiseIR | None:
    """The template's :class:`ElementwiseIR`, or None if out of subset.

    Bare roots are excluded even when representable: ``=A1`` — or an
    ``IF`` choosing between bare references — yields the referenced
    value itself (None for a blank), not its numeric coercion, so it has
    no array equivalent; so is a logical root.  Templates with no
    row-relative reference produce a constant column, which the per-cell
    closure already evaluates in O(1) each.
    """
    refs: list[tuple[AxisRef, AxisRef]] = []
    try:
        root, logical = _elementwise_node(ast, host_col, host_row, refs)
    except _Unsupported:
        return None
    if logical or _bare(root):
        return None
    if not any(not row_axis.fixed for _, row_axis in refs):
        return None
    return ElementwiseIR(root, tuple(refs))


def window_spec(ast: Node, host_col: int, host_row: int) -> WindowSpec | None:
    """The :class:`WindowSpec` of a pure windowed-aggregate template.

    Only same-sheet single-range aggregates qualify; anything else —
    extra arguments, scalar arguments, cross-sheet ranges — evaluates
    through the compiled closure per cell.
    """
    if not isinstance(ast, FunctionCall):
        return None
    func = _WINDOW_FUNCS.get(ast.name)
    if func is None or len(ast.args) != 1:
        return None
    rng = ast.args[0]
    if not isinstance(rng, RangeNode) or rng.sheet is not None:
        return None
    head_col, head_row = axis_refs(rng.head, host_col, host_row)
    tail_col, tail_row = axis_refs(rng.tail, host_col, host_row)
    return WindowSpec(func, head_col, head_row, tail_col, tail_row)


class LookupSpec(NamedTuple):
    """A template of the form ``VLOOKUP`` / ``HLOOKUP`` / ``MATCH`` of
    one cell — on the host's sheet, its row relative — in a range fixed
    on all four corners of that sheet, every other argument a constant:
    a column of them is probe-many against one build-once index
    (:func:`repro.engine.lookup.evaluate_lookup_run`).

    ``vector`` is the ``(c1, r1, c2, r2)`` the match is sought in (the
    table's first column or row, the MATCH range), ``vertical`` whether
    it runs down a column, ``side`` / ``tie`` the query the function's
    mode makes (``repro.formula.functions._scan_vector``).  The answer
    to a match ``k`` places along the vector is the value ``across``
    lines beside it — or, ``across`` None (MATCH), ``k + 1`` itself.
    """

    needle_col: AxisRef
    needle_row: AxisRef
    vector: tuple[int, int, int, int]
    vertical: bool
    side: str
    tie: str
    across: int | None


def _constant(node: Node):
    """The value of a literal argument (a signed number included)."""
    if isinstance(node, (Number, Boolean)):
        return node.value
    if isinstance(node, UnaryOp) and node.op in "+-" and isinstance(node.operand, Number):
        return -node.operand.value if node.op == "-" else node.operand.value
    raise _Unsupported("lookup: non-constant argument")


def lookup_spec(ast: Node, host_col: int, host_row: int) -> LookupSpec | None:
    """The template's :class:`LookupSpec`, or None.

    A call the function itself would refuse whatever the needle (an
    index outside the table, a two-dimensional MATCH range) is no lookup
    shape: the closure reports it.
    """
    if not isinstance(ast, FunctionCall) or ast.name not in ("VLOOKUP", "HLOOKUP", "MATCH"):
        return None
    args = ast.args
    if not 2 <= len(args) <= (3 if ast.name == "MATCH" else 4):
        return None
    needle, rng = args[0], args[1]
    if not isinstance(needle, CellNode) or needle.sheet is not None:
        return None
    if not isinstance(rng, RangeNode) or rng.sheet is not None:
        return None
    head, tail = rng.head, rng.tail
    if not (head.col_fixed and head.row_fixed and tail.col_fixed and tail.row_fixed):
        return None
    needle_col, needle_row = axis_refs(needle.ref, host_col, host_row)
    if needle_row.fixed:
        return None
    try:
        constants = [to_number(_constant(arg)) for arg in args[2:]]
    except _Unsupported:
        return None
    c1, c2 = sorted((head.col, tail.col))
    r1, r2 = sorted((head.row, tail.row))
    if ast.name == "MATCH":
        if c1 != c2 and r1 != r2:
            return None
        mode = int(constants[0]) if constants else 1
        side, tie = ("eq", "first") if mode == 0 else ("le" if mode > 0 else "ge", "last")
        vertical, across = c1 == c2, None
    else:
        if not constants:
            return None
        vertical = ast.name == "VLOOKUP"
        across = int(constants[0]) - 1
        if not 0 <= across <= (c2 - c1 if vertical else r2 - r1):
            return None
        approximate = len(constants) < 2 or constants[1] != 0
        side, tie = ("le", "last") if approximate else ("eq", "first")
    vector = (c1, r1, c1, r2) if vertical else (c1, r1, c2, r1)
    return LookupSpec(needle_col, needle_row, vector, vertical, side, tie, across)


# ---------------------------------------------------------------------------
# node compilers


def _compile_cell(node: CellNode, host_col: int, host_row: int) -> _Closure:
    ref_sheet = node.sheet
    col_ref, row_ref = axis_refs(node.ref, host_col, host_row)

    def closure(res, sheet, col, row):
        c = col_ref.value if col_ref.fixed else col + col_ref.value
        r = row_ref.value if row_ref.fixed else row + row_ref.value
        if c < 1 or r < 1:
            raise ErrorSignal(REF_ERROR)
        value = res.get_value(ref_sheet if ref_sheet is not None else sheet, c, r)
        if isinstance(value, ExcelError):
            raise ErrorSignal(value)
        return value

    return closure


def _compile_range(node: RangeNode, host_col: int, host_row: int) -> _Closure:
    ref_sheet = node.sheet
    hc, hr = axis_refs(node.head, host_col, host_row)
    tc, tr = axis_refs(node.tail, host_col, host_row)

    def closure(res, sheet, col, row):
        c1 = hc.value if hc.fixed else col + hc.value
        r1 = hr.value if hr.fixed else row + hr.value
        c2 = tc.value if tc.fixed else col + tc.value
        r2 = tr.value if tr.fixed else row + tr.value
        if c1 > c2:
            c1, c2 = c2, c1
        if r1 > r2:
            r1, r2 = r2, r1
        if c1 < 1 or r1 < 1:
            raise ErrorSignal(REF_ERROR)
        return RangeValue(
            Range(c1, r1, c2, r2),
            ref_sheet if ref_sheet is not None else sheet,
            res,
        )

    return closure


def _raising(error: ExcelError) -> _Closure:
    """A closure that raises ``error`` wherever it runs."""

    def closure(res, sheet, col, row):
        raise ErrorSignal(error)

    return closure


def _compile_operator(node: "UnaryOp | BinaryOp", host_col: int, host_row: int) -> _Closure:
    operands = [_compile(child, host_col, host_row) for child in node.children()]
    scalar = OPERATORS[node.op, len(operands)].scalar
    if len(operands) == 1:
        (operand,) = operands
        return lambda res, sheet, col, row: scalar(operand(res, sheet, col, row))
    # The interpreter evaluates BOTH operands before any coercion, so
    # when the left operand coerces to one error and the right operand
    # *evaluates* to another, the right one wins.  The closure keeps that
    # order: evaluate left, evaluate right, then the scalar form coerces.
    left, right = operands
    return lambda res, sheet, col, row: scalar(
        left(res, sheet, col, row), right(res, sheet, col, row)
    )


class _CallContext(EvalContext):
    """:class:`EvalContext`'s surface for one compiled lazy call at one
    member: ``eval(node)`` runs that argument's precompiled closure, and
    ``eval_reference`` (inherited) resolves a reference argument
    displaced from the template's host to the member."""

    __slots__ = ("closures", "res")

    def __init__(self, closures: dict, res, sheet, col: int, row: int, dc: int, dr: int):
        self.closures = closures
        self.res = res
        self.sheet = sheet
        self.col = col
        self.row = row
        self.dc = dc
        self.dr = dr

    def eval(self, node: Node):
        return self.closures[id(node)](self.res, self.sheet, self.col, self.row)


def _compile_call(node: FunctionCall, host_col: int, host_row: int) -> _Closure:
    spec = REGISTRY.get(node.name)
    if spec is None:
        return _raising(NAME_ERROR)
    arity = len(node.args)
    if arity < spec.min_args or (spec.max_args is not None and arity > spec.max_args):
        return _raising(VALUE_ERROR)
    impl = spec.impl
    if spec.lazy:
        nodes = node.args
        closures = {id(arg): _compile(arg, host_col, host_row) for arg in nodes}
        return lambda res, sheet, col, row: impl(
            _CallContext(closures, res, sheet, col, row, col - host_col, row - host_row),
            nodes,
        )
    args = tuple(_compile(arg, host_col, host_row) for arg in node.args)
    # Eager impls never touch the context argument (only lazy ones need
    # it for sub-evaluation), so the compiled call passes None.
    if len(args) == 1:
        arg0 = args[0]
        return lambda res, sheet, col, row: impl(None, arg0(res, sheet, col, row))
    if len(args) == 2:
        arg0, arg1 = args
        return lambda res, sheet, col, row: impl(
            None, arg0(res, sheet, col, row), arg1(res, sheet, col, row)
        )
    return lambda res, sheet, col, row: impl(
        None, *[arg(res, sheet, col, row) for arg in args]
    )


def _compile(node: Node, host_col: int, host_row: int) -> _Closure:
    if isinstance(node, Number):
        value = node.value
        return lambda res, sheet, col, row: value
    if isinstance(node, String):
        value = node.value
        return lambda res, sheet, col, row: value
    if isinstance(node, Boolean):
        value = node.value
        return lambda res, sheet, col, row: value
    if isinstance(node, ErrorLiteral):
        return _raising(ExcelError(node.code))
    if isinstance(node, CellNode):
        return _compile_cell(node, host_col, host_row)
    if isinstance(node, RangeNode):
        return _compile_range(node, host_col, host_row)
    if isinstance(node, (UnaryOp, BinaryOp)):
        return _compile_operator(node, host_col, host_row)
    if isinstance(node, FunctionCall):
        return _compile_call(node, host_col, host_row)
    return _raising(VALUE_ERROR)


class CompiledTemplate:
    """One compiled formula template: closure + at most one fast shape.

    ``shape`` is what a strip of the template can run as, or None: a
    :class:`WindowSpec` (a pure windowed aggregate, one column kernel per
    strip), an :class:`ElementwiseIR` (float arithmetic, comparisons and
    ``IF`` over cell refs: one sweep over every lane, or a scan down a
    recurrence) or a :class:`LookupSpec` (a lookup of one relative cell
    in a fixed range: one index per strip).  The three are exclusive by
    construction — window and lookup roots are calls of different
    functions, and the elementwise subset rejects every call but ``IF``.
    """

    __slots__ = ("key", "fn", "shape")

    def __init__(self, key: str, fn: _Closure,
                 shape: "WindowSpec | ElementwiseIR | LookupSpec | None" = None):
        self.key = key
        self.fn = fn
        self.shape = shape

    def run(self, resolver: CellResolver, sheet: str | None, col: int, row: int):
        """Evaluate at a host cell; same top-level contract as
        :meth:`~repro.formula.evaluator.Evaluator.evaluate` (errors come
        back as values, bare 1x1 ranges intersect implicitly)."""
        try:
            value = self.fn(resolver, sheet, col, row)
        except ErrorSignal as signal:
            return signal.error
        except RecursionError:  # pragma: no cover - parity with Evaluator
            return ExcelError("#VALUE!")
        if isinstance(value, RangeValue):
            if value.width == 1 and value.height == 1:
                return value.get(0, 0)
            return VALUE_ERROR
        return value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = f", {type(self.shape).__name__}" if self.shape is not None else ""
        return f"CompiledTemplate({self.key!r}{tag})"


def compile_template(ast: Node, host_col: int, host_row: int,
                     key: str | None = None) -> CompiledTemplate:
    """Compile one formula AST into a template; every AST compiles.

    ``key`` is the template's R1C1 rendering (computed when omitted);
    the closure is position-independent — any host cell whose formula
    shares the key evaluates correctly through it.
    """
    if key is None:
        key = to_r1c1(ast, host_col, host_row)
    return CompiledTemplate(
        key, _compile(ast, host_col, host_row),
        window_spec(ast, host_col, host_row)
        or elementwise_ir(ast, host_col, host_row)
        or lookup_spec(ast, host_col, host_row),
    )


class TemplateRegistry:
    """Bounded cache of compiled templates keyed by R1C1 text.

    10,000 autofilled cells share one key and therefore compile exactly
    once.  FIFO eviction keeps the registry bounded under adversarial
    churn (every formula unique).
    """

    def __init__(self, max_templates: int = 4096):
        self.max_templates = max_templates
        self._templates: dict[str, CompiledTemplate] = {}
        self.compilations = 0

    def __len__(self) -> int:
        return len(self._templates)

    def template_for(self, key: str, ast: Node, host_col: int,
                     host_row: int) -> CompiledTemplate:
        """The compiled template for ``key``, compiling on first sight."""
        try:
            return self._templates[key]
        except KeyError:
            pass
        while len(self._templates) >= self.max_templates:
            self._templates.pop(next(iter(self._templates)))
        template = compile_template(ast, host_col, host_row, key=key)
        self.compilations += 1
        self._templates[key] = template
        return template

    def clear(self) -> None:
        self._templates.clear()


_DEFAULT_REGISTRY = TemplateRegistry()


def default_registry() -> TemplateRegistry:
    """The process-wide registry shared by every engine by default."""
    return _DEFAULT_REGISTRY


class EvalStats:
    """Counters for how formula cells were evaluated (one engine's view)."""

    __slots__ = ("compiled_cells", "interpreted_cells", "windowed_cells",
                 "windowed_runs", "elementwise_cells", "elementwise_runs",
                 "lookup_index_hits", "lookup_index_builds",
                 "scenario_plan_reuses",
                 "parallel_regions", "parallel_dispatches",
                 "serial_fallbacks", "fallback_reason",
                 "shard_bootstraps", "shard_delta_bytes", "shard_fallbacks")

    #: The per-cell counters every engine accumulates.  Resident
    #: execution merges exactly these from worker stats (summation is
    #: commutative, so merge order cannot change the totals).
    #: ``lookup_index_hits`` belongs here because probe eligibility is a
    #: pure function of vector geometry — identical wherever the cell
    #: evaluates; builds are environment-dependent (each process worker
    #: builds privately) and stay outside, like ``serial_fallbacks``.
    CELL_COUNTERS = ("compiled_cells", "interpreted_cells", "windowed_cells",
                     "windowed_runs", "elementwise_cells", "elementwise_runs",
                     "lookup_index_hits")

    def __init__(self) -> None:
        self.compiled_cells = 0
        self.interpreted_cells = 0
        self.windowed_cells = 0
        self.windowed_runs = 0
        self.elementwise_cells = 0
        self.elementwise_runs = 0
        # Lookaside-index bookkeeping (repro.engine.lookup) and the
        # scenario engine's shared-plan replays (repro.engine.scenario).
        self.lookup_index_hits = 0
        self.lookup_index_builds = 0
        self.scenario_plan_reuses = 0
        # Dispatch bookkeeping (repro.engine.shard, repro.engine.scenario):
        # shard batches planned, batches actually run by residents, and
        # batches that fell back to serial re-execution (with the *last*
        # fallback's reason, or None when everything ran as planned).
        self.parallel_regions = 0
        self.parallel_dispatches = 0
        self.serial_fallbacks = 0
        self.fallback_reason = None
        # Persistent-shard bookkeeping (repro.engine.shard): shard
        # (re-)bootstraps shipped, bytes of plane deltas + patches sent to
        # resident workers, and shard dispatches that fell back serially.
        # Environment-dependent (like builds/fallbacks above), so outside
        # CELL_COUNTERS: serial and sharded runs stay snapshot-identical.
        self.shard_bootstraps = 0
        self.shard_delta_bytes = 0
        self.shard_fallbacks = 0

    @property
    def total_cells(self) -> int:
        return (self.compiled_cells + self.interpreted_cells
                + self.windowed_cells + self.elementwise_cells)

    def counter_snapshot(self) -> tuple:
        """The deterministic counters, in ``CELL_COUNTERS`` order."""
        return tuple(getattr(self, name) for name in self.CELL_COUNTERS)

    def absorb_counters(self, counters) -> None:
        """Merge another engine's counters (``CELL_COUNTERS`` order) in."""
        for name, delta in zip(self.CELL_COUNTERS, counters):
            setattr(self, name, getattr(self, name) + delta)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EvalStats(compiled={self.compiled_cells}, "
            f"interpreted={self.interpreted_cells}, "
            f"windowed={self.windowed_cells} in {self.windowed_runs} runs, "
            f"elementwise={self.elementwise_cells} in {self.elementwise_runs} runs, "
            f"parallel={self.parallel_dispatches}/{self.parallel_regions} regions, "
            f"fallbacks={self.serial_fallbacks})"
        )


class CompilingEvaluator:
    """Per-cell evaluation through the template registry.

    The front door the recalculation engines use for a single formula
    cell: the template's compiled closure.  Exposes the tree-walking
    interpreter too, for the ``evaluation="interpreter"`` oracle.
    """

    __slots__ = ("resolver", "interpreter", "registry", "stats")

    def __init__(
        self,
        resolver: CellResolver,
        registry: TemplateRegistry | None = None,
        stats: EvalStats | None = None,
    ):
        self.resolver = resolver
        self.interpreter = Evaluator(resolver)
        self.registry = default_registry() if registry is None else registry
        self.stats = stats if stats is not None else EvalStats()

    def template_for_cell(self, cell) -> CompiledTemplate:
        """The formula cell's compiled template.

        Compiles from the family's anchor AST — closures are
        position-free — so no member's own AST is ever rendered here.
        """
        family = cell.template
        return self.registry.template_for(family.key, family.ast, family.col, family.row)

    def evaluate_cell(self, cell, sheet: str | None, col: int, row: int):
        """Evaluate one formula cell to a value."""
        self.stats.compiled_cells += 1
        return self.template_for_cell(cell).run(self.resolver, sheet, col, row)

    def interpret_cell(self, cell, sheet: str | None, col: int, row: int):
        """Evaluate one cell strictly through the tree-walking interpreter
        (which walks the family's anchor AST displaced to this host)."""
        self.stats.interpreted_cells += 1
        family = cell.template
        return self.interpreter.evaluate(
            family.ast, sheet, col, row, written_at=(family.col, family.row)
        )

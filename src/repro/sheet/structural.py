"""Structural sheet edits: inserting and deleting whole rows/columns.

Spreadsheet systems must keep formulae consistent under structural edits:
references at or below an inserted row shift, ranges straddling the
insertion point stretch, and references into deleted rows collapse to
``#REF!`` — regardless of ``$`` markers (absolute references pin against
*autofill*, not against structural edits).  These semantics are what the
graph-level structural maintenance in :mod:`repro.core.structural` must
reproduce, so the sheet-level implementation here doubles as its test
oracle.

Edits are *sheet-scoped*: a reference only shifts when it points into the
edited sheet.  A formula on the edited sheet rewrites its unqualified and
self-qualified references; a ``Sheet2!A1`` inside it is untouched.  The
converse pass — formulas on *other* sheets whose sheet-qualified
references point into the edited sheet — is :func:`rewrite_for_edit`,
which the workbook-level pipeline (:mod:`repro.engine.structural`) runs
over every sibling sheet.

Every operation returns a :class:`SheetEditReport` so callers (the
recalculation pipeline in particular) know exactly which cells moved,
which formulas were rewritten, and which references were struck to
``#REF!`` — the seeds of the post-edit dirty set.
"""

from __future__ import annotations

import re
from typing import Callable, NamedTuple

from ..formula.ast_nodes import (
    BinaryOp,
    CellNode,
    ErrorLiteral,
    FunctionCall,
    Node,
    RangeNode,
    UnaryOp,
    walk,
)
from ..formula.errors import REF_ERROR
from ..formula.template import FormulaTemplate, intern_template
from ..grid.range import Range
from ..grid.ref import CellRef, letters_to_col
from .cell import Cell
from .sheet import Sheet

__all__ = [
    "SheetEditReport",
    "insert_rows",
    "delete_rows",
    "insert_columns",
    "delete_columns",
    "edit_transform",
    "rewrite_for_edit",
    "rewrite_siblings",
    "shift_range_for_insert",
    "shift_range_for_delete",
    "STRUCTURAL_OPS",
]

#: op name -> (axis, mode); the four structural operations share one
#: geometry engine parameterised by these two values.
STRUCTURAL_OPS = {
    "insert_rows": ("row", "insert"),
    "delete_rows": ("row", "delete"),
    "insert_columns": ("col", "insert"),
    "delete_columns": ("col", "delete"),
}


class SheetEditReport(NamedTuple):
    """What one structural edit did to one sheet.

    All positions are *post-edit* coordinates.  ``moved``, ``rewritten``
    and ``resized`` overlap freely: a shifted formula whose straddling
    range stretched appears in all three.
    """

    moved: set[tuple[int, int]]        # formula cells whose position changed
    rewritten: set[tuple[int, int]]    # formula cells whose AST changed
    resized: set[tuple[int, int]]      # formulas with a stretched/shrunk range
    volatile: set[tuple[int, int]]     # moved/rewritten formulas using ROW/COLUMN
    ref_struck: set[tuple[int, int]]   # formulas that gained a #REF! here
    removed: int                       # cells deleted with the edited band

    @property
    def dirty_seeds(self) -> set[tuple[int, int]]:
        """Formula cells whose *value* may have changed.

        A structural edit translates whole bands of the grid: a formula
        whose references only shifted wholesale (or stayed put) reads
        exactly the values it read before — every referenced cell moved
        in lockstep, or not at all — so its value is invariant, moved or
        not.  Values can only change where a referenced range changed
        *size* (stretched over inserted blanks, shrunk past a deleted
        band — size-sensitive functions like ``ROWS`` and any aggregate
        over deleted values see the difference), where a moved or
        rewritten formula asks about *position* itself (``ROW``/
        ``COLUMN`` — the ``volatile`` set), or where a reference
        collapsed to ``#REF!``.  Their transitive dependents come from
        the graph, not from this report.
        """
        return self.resized | self.volatile | self.ref_struck

    @property
    def changed_formulas(self) -> int:
        return len(self.moved | self.rewritten)


# ---------------------------------------------------------------------------
# range arithmetic shared with the graph-level implementation


def shift_range_for_insert(rng: Range, index: int, count: int, axis: str = "row") -> Range:
    """How a referenced range moves when ``count`` rows/columns are
    inserted before ``index``: below shifts, straddling stretches."""
    if axis == "row":
        if rng.r2 < index:
            return rng
        if rng.r1 >= index:
            return rng.shift(0, count)
        return Range(rng.c1, rng.r1, rng.c2, rng.r2 + count)
    if rng.c2 < index:
        return rng
    if rng.c1 >= index:
        return rng.shift(count, 0)
    return Range(rng.c1, rng.r1, rng.c2 + count, rng.r2)


def shift_range_for_delete(
    rng: Range, index: int, count: int, axis: str = "row"
) -> Range | None:
    """How a referenced range moves when rows/columns
    ``[index, index+count)`` are deleted; ``None`` means the whole range
    is gone (a ``#REF!``)."""
    end = index + count - 1
    if axis == "row":
        if rng.r2 < index:
            return rng
        if rng.r1 > end:
            return rng.shift(0, -count)
        new_r1 = rng.r1 if rng.r1 < index else index
        new_r2 = (rng.r2 - count) if rng.r2 > end else index - 1
        if new_r2 < new_r1:
            return None
        return Range(rng.c1, new_r1, rng.c2, new_r2)
    if rng.c2 < index:
        return rng
    if rng.c1 > end:
        return rng.shift(-count, 0)
    new_c1 = rng.c1 if rng.c1 < index else index
    new_c2 = (rng.c2 - count) if rng.c2 > end else index - 1
    if new_c2 < new_c1:
        return None
    return Range(new_c1, rng.r1, new_c2, rng.r2)


def edit_transform(op: str, index: int, count: int) -> Callable[[Range], Range | None]:
    """The reference transform of one structural operation by name."""
    axis, mode = STRUCTURAL_OPS[op]
    if mode == "insert":
        return lambda rng: shift_range_for_insert(rng, index, count, axis)
    return lambda rng: shift_range_for_delete(rng, index, count, axis)


# ---------------------------------------------------------------------------
# textual prescreen: skip parsing formulas an edit provably cannot touch

#: Anything that scans like an A1 reference (``B12``, ``$AB$3``, also a
#: qualified ``Sheet1!C4`` — the qualifier is irrelevant here).  The
#: lookbehind keeps suffixes of longer identifiers from matching, the
#: lookaheads keep the digits whole and exclude function calls like
#: ``LOG10(`` (a reference is never followed by ``(``); quoted strings
#: are *not* excluded, which only ever forces the slow path.
_A1_TOKEN = re.compile(r"(?<![A-Za-z0-9_$])\$?([A-Za-z]{1,3})\$?(\d+)(?!\d)(?!\s*\()")

#: ROW/COLUMN make a formula's value depend on where things *sit*, so a
#: formula mentioning them can never be prescreened away.
_POSITION_TOKEN = re.compile(r"(?i)(?<![A-Za-z0-9_])(?:ROW|COLUMN)(?![A-Za-z0-9_])")


def _may_touch(text: str, axis: str, index: int) -> bool:
    """Conservative textual test: could a structural edit at ``index``
    along ``axis`` affect a formula with this source text?

    ``False`` is a proof: every token that could possibly be a reference
    sits strictly before the edit line (references never shift, ranges
    never stretch or strike) and no position-sensitive function appears —
    so the rewritten AST would come back identical.  ``True`` just means
    "parse and look"; string literals and references qualified into other
    sheets produce harmless ``True``s.  This is what keeps replaying a
    structural edit onto a freshly restored (lazily parsed) sheet from
    re-parsing every formula in the workbook: ``O(len(text))`` per cell
    instead of a full tokenize+parse.
    """
    if _POSITION_TOKEN.search(text):
        return True
    if axis == "row":
        for match in _A1_TOKEN.finditer(text):
            if int(match.group(2)) >= index:
                return True
        return False
    for match in _A1_TOKEN.finditer(text):
        if letters_to_col(match.group(1).upper()) >= index:
            return True
    return False


# ---------------------------------------------------------------------------
# AST reference rewriting


def _rewrite(node: Node, transform, applies) -> Node:
    """Rebuild an AST, mapping each in-scope reference through ``transform``.

    ``transform(range) -> Range | None`` works on the bare geometry;
    fixedness flags are carried over unchanged.  ``applies(node) -> bool``
    decides whether a reference node is in scope for this edit: a
    reference whose sheet qualifier names a different sheet than the one
    being edited must never shift.  Subtrees that come back unchanged are
    returned *by identity*, so callers can detect genuinely rewritten
    formulas with an ``is`` check (and untouched ASTs allocate nothing).
    """
    if isinstance(node, CellNode):
        if not applies(node):
            return node
        moved = transform(node.to_range())
        if moved is None:
            return ErrorLiteral(REF_ERROR.code)
        ref = node.ref
        if moved.c1 == ref.col and moved.r1 == ref.row:
            return node
        return CellNode(
            CellRef(moved.c1, moved.r1, ref.col_fixed, ref.row_fixed), node.sheet
        )
    if isinstance(node, RangeNode):
        if not applies(node):
            return node
        moved = transform(node.to_range())
        if moved is None:
            return ErrorLiteral(REF_ERROR.code)
        if moved == node.to_range():
            return node
        head, tail = node.head, node.tail
        return RangeNode(
            CellRef(moved.c1, moved.r1, head.col_fixed, head.row_fixed),
            CellRef(moved.c2, moved.r2, tail.col_fixed, tail.row_fixed),
            node.sheet,
        )
    if isinstance(node, FunctionCall):
        args = [_rewrite(arg, transform, applies) for arg in node.args]
        if all(new is old for new, old in zip(args, node.args)):
            return node
        return FunctionCall(node.name, args)
    if isinstance(node, BinaryOp):
        left = _rewrite(node.left, transform, applies)
        right = _rewrite(node.right, transform, applies)
        if left is node.left and right is node.right:
            return node
        return BinaryOp(node.op, left, right)
    if isinstance(node, UnaryOp):
        operand = _rewrite(node.operand, transform, applies)
        if operand is node.operand:
            return node
        return UnaryOp(node.op, operand)
    return node


#: Functions whose value depends on where a reference (or the host
#: formula) *sits*, not on any referenced value — a wholesale shift
#: changes their result even though every referenced value is preserved,
#: so formulas using them cannot be excluded from the dirty seeds.
_POSITION_SENSITIVE = frozenset({"ROW", "COLUMN"})


def _position_sensitive(ast: Node) -> bool:
    return any(
        isinstance(node, FunctionCall) and node.name in _POSITION_SENSITIVE
        for node in walk(ast)
    )


class _TransformWatcher:
    """Wrap a transform, noting strikes (``#REF!``) and size changes.

    A single-axis structural edit leaves a surviving range either
    untouched, shifted wholesale (size preserved), or stretched/shrunk
    across the edit line — so ``size`` is an exact change-of-shape
    detector, and shape is exactly what decides whether the formula's
    value can change (see :meth:`SheetEditReport.dirty_seeds`).
    """

    __slots__ = ("transform", "strikes", "resized")

    def __init__(self, transform):
        self.transform = transform
        self.strikes = 0
        self.resized = 0

    def __call__(self, rng: Range) -> Range | None:
        moved = self.transform(rng)
        if moved is None:
            self.strikes += 1
        elif moved.size != rng.size:
            self.resized += 1
        return moved


# ---------------------------------------------------------------------------
# sheet-level operations


class _Outcome(NamedTuple):
    """What a structural edit makes of one surviving formula cell that
    cannot simply stay as it is: the formula to install at its new
    position — source ``text`` when the AST is provably untouched, else
    the ``template`` the rewritten AST interned as — and what the
    rewrite observed."""

    text: str | None
    template: FormulaTemplate | None
    rewritten: bool = False
    resized: bool = False
    volatile: bool = False
    struck: bool = False


def _outcome(cell: Cell, pos, new_pos, transform_ref, applies, prescreen) -> _Outcome | None:
    """Decide one formula cell's fate, reading it at its *pre-edit* host.

    None means the cell keeps its object untouched: it stays where it is
    and no reference of it changes.  A formula cell is a (template, host)
    pair, so its AST is materialised here — once — rewritten, and
    re-interned for the new position (a family that moves together with
    what it references lands back on one shared template); ``rewritten``
    is the identity test of :func:`_rewrite` against that one
    materialisation.

    ``prescreen`` (optional) is the edit line as ``(axis, index)``.  A
    formula that still carries its source text is put to the conservative
    textual test of :func:`_may_touch`: one that provably cannot be
    affected skips parsing entirely and moves as text, which makes an
    edit on a lazily parsed sheet (a fresh xlsx read) cost ``O(cells)``
    text scans instead of ``O(cells)`` formula parses.  A template member
    has no text to scan, but its references are arithmetic on the
    template's specs: one that stays put and reaches nothing at or
    beyond the line is untouched, without its AST ever being built — the
    same saving for an autofilled column, live or restored from a
    snapshot's run records.
    """
    text = cell.source_text
    if prescreen is not None:
        axis, index = prescreen
        if text is not None:
            if not _may_touch(text, axis, index):
                return None if new_pos == pos else _Outcome(text, None)
        elif new_pos == pos:
            far = 4 if axis == "row" else 3     # r2 / c2 of a (sheet, c1, r1, c2, r2) span
            if all(span[far] < index for span in cell.template.spans_at(*pos)):
                return None
    watcher = _TransformWatcher(transform_ref)
    ast = cell.formula_ast
    new_ast = _rewrite(ast, watcher, applies)
    if new_ast is ast and new_pos == pos:
        return None
    return _Outcome(
        None, intern_template(new_ast, *new_pos), new_ast is not ast,
        bool(watcher.resized), _position_sensitive(new_ast), bool(watcher.strikes),
    )


class _Report:
    """Accumulates a :class:`SheetEditReport` as outcomes are installed."""

    def __init__(self):
        # moved, rewritten, resized, volatile, ref_struck — the report's
        # set fields, which _Outcome's flags follow in the same order.
        self.sets = tuple(set() for _ in range(5))

    def note(self, new_pos, did_move: bool, outcome: _Outcome) -> None:
        for hit, positions in zip((did_move, *outcome[2:]), self.sets):
            if hit:
                positions.add(new_pos)

    def done(self, removed: int) -> SheetEditReport:
        return SheetEditReport(*self.sets, removed)


def position_mover(axis: str, mode: str, index: int, count: int):
    """``pos -> pos | None``: where a structural edit — ``count`` rows
    (``axis="row"``) or columns inserted before / deleted from ``index``
    — takes a position; None when it is deleted."""
    at = 1 if axis == "row" else 0
    end = index + count - 1

    def move(pos):
        line = pos[at]
        if line < index:
            return pos
        if mode == "insert":
            line += count
        elif line > end:
            line -= count
        else:
            return None
        return (pos[0], line) if at else (line, pos[1])

    return move


def _apply_structural(sheet: Sheet, axis: str, mode: str, index: int, count: int) -> SheetEditReport:
    """Insert ``count`` blank rows (``axis="row"``) or columns before
    ``index``, or delete ``count`` of them from ``index`` on — ``mode``
    — and rewrite ``sheet``'s formulas to match.

    Only references *into this sheet* (unqualified, or qualified with the
    sheet's own name) are rewritten; sheet-qualified references into
    other sheets never shift under an edit here.

    Values move inside the store wholesale
    (:meth:`~repro.sheet.columnar.ColumnarStore.structural_edit`: array
    splices), so only the *formula* population is walked here.  Each surviving
    formula's :func:`_outcome` is decided *before* the move — after it,
    a template member would read a different formula at its new host —
    and every formula that moves or changes is re-installed from its
    outcome after it, so nothing position-dependent travels.
    """
    if count < 1 or index < 1:
        raise ValueError(f"{axis} and count must be positive")
    name = sheet.name

    def applies(node) -> bool:
        return node.sheet is None or node.sheet == name

    shift = shift_range_for_insert if mode == "insert" else shift_range_for_delete

    def transform_ref(rng: Range) -> Range | None:
        return shift(rng, index, count, axis)

    move_cell = position_mover(axis, mode, index, count)
    report = _Report()
    prescreen = (axis, index)       # the edit line
    store = sheet._cells
    pending = []
    for pos, cell in store.formula_items():
        new_pos = move_cell(pos)
        if new_pos is None:
            continue
        outcome = _outcome(cell, pos, new_pos, transform_ref, applies, prescreen)
        if outcome is not None:
            pending.append((new_pos, new_pos != pos, outcome))
    removed = store.structural_edit(axis, mode, index, count)
    for new_pos, did_move, outcome in pending:
        # The cached value already sits at new_pos (the edit moved it);
        # read it out before put_formula resets it.
        store.put_formula(new_pos, formula_text=outcome.text, template=outcome.template,
                          value=store.read_value(*new_pos))
        report.note(new_pos, did_move, outcome)
    return report.done(removed)


def rewrite_for_edit(
    sheet: Sheet, target: str, op: str, index: int, count: int
) -> SheetEditReport:
    """Rewrite ``sheet``'s references into ``target`` after a structural
    edit performed *on the other sheet* ``target``.

    No cell on ``sheet`` moves — only sheet-qualified references that
    point into the edited sheet shift (or collapse to ``#REF!`` when the
    referenced band was deleted).  Formulas whose AST changes are
    replaced wholesale (the rewritten AST interns as its own template);
    cached values are carried over (they are stale until the owner
    recalculates, exactly like any other dependent).
    """
    if sheet.name == target:
        raise ValueError(
            "rewrite_for_edit is the cross-sheet pass; "
            f"use {op} directly on the edited sheet {target!r}"
        )
    transform = edit_transform(op, index, count)
    # In formula source a quoted sheet name doubles its apostrophes
    # ('It''s'!A1): a name containing one never appears verbatim, so the
    # textual shortcut below must look for the escaped spelling too.
    quoted_target = target.replace("'", "''")

    def applies(node) -> bool:
        return node.sheet == target

    report = _Report()
    for pos, cell in list(sheet.formula_cells()):
        text = cell.source_text
        if text is not None:
            # A reference into ``target`` must spell its name (possibly
            # apostrophe-escaped); a formula whose text never mentions it
            # cannot be affected.  (A name that happens to appear in a
            # string literal just forces the slow path — conservative,
            # never wrong.)
            if target not in text and quoted_target not in text:
                continue
        elif not any(ref.sheet == target for ref in cell.template.refs):
            continue
        outcome = _outcome(cell, pos, pos, transform, applies, None)
        if outcome is None:
            continue
        value = cell.value
        sheet.set_formula_template(pos, outcome.template)
        sheet.formula_at(pos).value = value
        report.note(pos, False, outcome)
    return report.done(0)


def rewrite_siblings(
    workbook, target: Sheet, op: str, index: int, count: int
) -> dict[str, SheetEditReport]:
    """Run :func:`rewrite_for_edit` over every sheet of ``workbook``
    except ``target`` (the edited sheet, validated to be a member — by
    identity, so a same-named stranger sheet is rejected).

    Returns one :class:`SheetEditReport` per *touched* sibling sheet,
    keyed by sheet name, so callers can enumerate exactly which
    cross-sheet formulas were rewritten or struck — their cached values
    are stale until each sheet's own engine recalculates (formula graphs
    are per-sheet).  Shared by the engine pipeline and
    :class:`~repro.sheet.workbook.Workbook`'s structural methods.
    """
    if not any(sheet is target for sheet in workbook.sheets()):
        raise ValueError(
            f"sheet {target.name!r} is not part of workbook {workbook.name!r}"
        )
    reports: dict[str, SheetEditReport] = {}
    for other in workbook.sheets():
        if other is target:
            continue
        report = rewrite_for_edit(other, target.name, op, index, count)
        if report.rewritten or report.ref_struck:
            reports[other.name] = report
    return reports


def insert_rows(sheet: Sheet, row: int, count: int = 1) -> SheetEditReport:
    """Insert ``count`` blank rows before ``row``."""
    return _apply_structural(sheet, "row", "insert", row, count)


def delete_rows(sheet: Sheet, row: int, count: int = 1) -> SheetEditReport:
    """Delete rows ``[row, row+count)``; references into them go #REF!."""
    return _apply_structural(sheet, "row", "delete", row, count)


def insert_columns(sheet: Sheet, col: int, count: int = 1) -> SheetEditReport:
    """Insert ``count`` blank columns before ``col``."""
    return _apply_structural(sheet, "col", "insert", col, count)


def delete_columns(sheet: Sheet, col: int, count: int = 1) -> SheetEditReport:
    """Delete columns ``[col, col+count)``."""
    return _apply_structural(sheet, "col", "delete", col, count)

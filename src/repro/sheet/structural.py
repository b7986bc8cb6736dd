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

Both passes walk run records, not members, and rewrite each piece of a
record once (:func:`_edit_records`).

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
from ..formula.parser import parse_formula
from ..formula.template import FormulaTemplate, intern_template
from ..grid.range import Range
from ..grid.ref import CellRef, letters_to_col
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

    Every field but ``removed`` lists formula cells as *post-edit* column
    ranges, one per piece of a run record the edit decided on whole
    (:func:`repro.graphs.base.expand_cells` lists their cells).  The
    lists overlap freely: a shifted formula whose straddling range
    stretched appears in ``moved``, ``rewritten`` and ``resized``.
    ``rewritten`` means the member's template changed — a formula that
    moved in lockstep with everything it reads is only ``moved``, and a
    typed cell the text screen passes over is never parsed and counts as
    unchanged.
    """

    moved: list[Range]        # formula cells whose position changed
    rewritten: list[Range]    # formula cells whose template changed
    resized: list[Range]      # formulas with a stretched/shrunk range
    volatile: list[Range]     # moved/rewritten formulas using ROW/COLUMN
    ref_struck: list[Range]   # formulas that gained a #REF! here
    removed: int              # cells deleted with the edited band

    @property
    def dirty_seeds(self) -> list[Range]:
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
        ``COLUMN`` — the ``volatile`` list), or where a reference
        collapsed to ``#REF!``.  Their transitive dependents come from
        the graph, not from this report.
        """
        return list(dict.fromkeys(self.resized + self.volatile + self.ref_struck))


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
        # Each corner keeps its own $ flags: the head of a crossed range
        # (written below or right of its tail) is the far corner.
        head, tail = node.head, node.tail
        hc, tc = (moved.c1, moved.c2) if head.col <= tail.col else (moved.c2, moved.c1)
        hr, tr = (moved.r1, moved.r2) if head.row <= tail.row else (moved.r2, moved.r1)
        return RangeNode(
            CellRef(hc, hr, head.col_fixed, head.row_fixed),
            CellRef(tc, tr, tail.col_fixed, tail.row_fixed),
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


def _edit_cuts(template: FormulaTemplate, in_scope, index: int, end: int | None,
               hosts_move: bool, r0: int, r1: int) -> set[int]:
    """Rows after which a piece of the record ``r0..r1`` ends for a row
    edit at ``index`` (an insert, ``end`` None, or the delete of
    ``index..end``): where the hosts or an in-scope relative row end cross
    a line.  A host whose end falls into the deleted band clamps to the
    band's edge, so it is a piece of one."""
    lines = (index,) if end is None else (index, end + 1)
    cuts = {line - 1 for line in lines} if hosts_move else set()
    for spec in template.refs:
        for corner in (spec.head_row, spec.tail_row) if in_scope(spec) else ():
            if corner.fixed:
                continue
            if end is None:
                cuts.add(index - 1 - corner.value)
            else:
                cuts.update(range(max(r0, index - corner.value) - 1,
                                  min(r1, end - corner.value) + 1))
    return cuts


def _edit_records(sheet: Sheet, op: str, index: int, count: int,
                  in_scope, screen, hosts_move: bool):
    """Decide every formula of ``sheet`` for one structural edit from its
    *pre-edit* run records: the pieces to re-install once the store has
    moved, as ``(post-edit range, template, text)``, and the report's five
    range lists.

    Each record is cut into pieces (:func:`_edit_cuts` and
    :meth:`~repro.formula.template.FormulaTemplate.run_pieces`) within
    which every member lands each in-scope reference end on the same side
    of the edit, so one rewrite and one intern decide a piece.  A piece
    that keeps its template needs nothing (``structural_edit`` moves
    records with their templates) unless its typed first member's text
    went stale.  ``in_scope(node_or_spec)`` picks the references the edit
    moves by their ``sheet``; a typed cell nothing has parsed is first
    put to ``screen(text)``, and ``hosts_move`` is False for the
    cross-sheet pass.
    """
    axis, mode = STRUCTURAL_OPS[op]
    transform = edit_transform(op, index, count)
    move = position_mover(axis, mode, index, count) if hosts_move else (lambda pos: pos)
    end = None if mode == "insert" else index + count - 1
    installs: list = []
    ranges = moved, rewritten, resized, volatile, struck = ([], [], [], [], [])
    for col, records in sheet.run_index(join=False).items():
        for first, last, stored, text in records:
            template = stored
            if template is None:
                if not screen(text):
                    to = move((col, first))
                    if to is not None and to != (col, first):
                        moved.append(Range.cell(*to))
                    continue
                template = intern_template(parse_formula(text), col, first)
            elif move((col, last)) == (col, last) and not any(map(in_scope, template.refs)):
                continue
            cuts = _edit_cuts(template, in_scope, index, end, hosts_move, first, last) \
                if axis == "row" else ()
            for a, b in template.run_pieces(col, first, last, sheet.name, cuts):
                head = move((col, a))
                if head is None:
                    continue                # deleted with the band
                watcher = _TransformWatcher(transform)
                ast = template.ast_at(col, a)
                new_ast = _rewrite(ast, watcher, in_scope)
                if new_ast is ast and head == (col, a):
                    continue
                piece = Range(*head, *move((col, b)))
                new = intern_template(new_ast, *head)
                held = text if a == first else None
                keep = held if new_ast is ast else None     # the text still says it
                if new is not stored or keep is not held:
                    installs.append((piece, new, keep))
                for hit, out in zip((head != (col, a), new is not template, watcher.resized,
                                     _position_sensitive(new_ast), watcher.strikes), ranges):
                    if hit:
                        out.append(piece)
    return installs, ranges


def _install(store, installs) -> None:
    """Make each decided piece one run of its template, keeping cached
    values; a member a relative reference would take off the grid gets
    its own ``#REF!`` formula (:meth:`Sheet.set_formula_template`'s rule)."""
    for piece, template, text in installs:
        col, first, last = piece.c1, piece.r1, piece.r2
        if template.admits(col, first) and template.admits(col, last):
            store.attach_run(col, first, last, template, text)
        else:
            for row in range(first, last + 1):
                store.put_formula((col, row), formula_ast=template.ast_at(col, row),
                                  value=store.read_value(col, row))


def _apply_structural(sheet: Sheet, op: str, index: int, count: int) -> SheetEditReport:
    """Run the structural ``op`` on ``sheet`` and rewrite its references
    into itself (unqualified or self-qualified) to match.

    The store moves values and run records wholesale (``structural_edit``:
    array splices, records keeping their templates); the pieces are
    decided from the records before that move — after it a member would
    read a different formula at its new host — and installed after it.
    """
    if count < 1 or index < 1:
        raise ValueError(f"{op}: index and count must be positive")
    axis, mode = STRUCTURAL_OPS[op]
    name = sheet.name
    installs, ranges = _edit_records(
        sheet, op, index, count, lambda ref: ref.sheet is None or ref.sheet == name,
        lambda text: _may_touch(text, axis, index), True,
    )
    removed = sheet._cells.structural_edit(axis, mode, index, count)
    _install(sheet._cells, installs)
    return SheetEditReport(*ranges, removed)


def rewrite_for_edit(
    sheet: Sheet, target: str, op: str, index: int, count: int
) -> SheetEditReport:
    """Rewrite ``sheet``'s references into ``target`` after a structural
    edit performed *on the other sheet* ``target``.

    No cell on ``sheet`` moves — only sheet-qualified references that
    point into the edited sheet shift (or collapse to ``#REF!`` when the
    referenced band was deleted), decided per run record as on the edited
    sheet.  Cached values are carried over (they are stale until the
    owner recalculates, exactly like any other dependent).
    """
    if sheet.name == target:
        raise ValueError(
            "rewrite_for_edit is the cross-sheet pass; "
            f"use {op} directly on the edited sheet {target!r}"
        )
    # In formula source a quoted sheet name doubles its apostrophes
    # ('It''s'!A1): a name containing one never appears verbatim, so the
    # textual screen must look for the escaped spelling too.  (A name
    # that happens to appear in a string literal just forces a parse.)
    quoted_target = target.replace("'", "''")
    installs, ranges = _edit_records(
        sheet, op, index, count, lambda ref: ref.sheet == target,
        lambda text: target in text or quoted_target in text, False,
    )
    _install(sheet._cells, installs)
    return SheetEditReport(*ranges, 0)


def _tally(report: SheetEditReport, siblings: dict[str, SheetEditReport]) -> tuple[int, ...]:
    """``(moved, rewritten, ref_errors, cross_sheet_rewrites)`` cell counts
    of one edit over the edited sheet's report and its siblings'."""
    def cells(field: str, reports) -> int:
        return sum(rng.size for one in reports for rng in getattr(one, field))

    cross = cells("rewritten", siblings.values())
    return (cells("moved", [report]), cells("rewritten", [report]) + cross,
            cells("ref_struck", [report, *siblings.values()]), cross)


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
    return _apply_structural(sheet, "insert_rows", row, count)


def delete_rows(sheet: Sheet, row: int, count: int = 1) -> SheetEditReport:
    """Delete rows ``[row, row+count)``; references into them go #REF!."""
    return _apply_structural(sheet, "delete_rows", row, count)


def insert_columns(sheet: Sheet, col: int, count: int = 1) -> SheetEditReport:
    """Insert ``count`` blank columns before ``col``."""
    return _apply_structural(sheet, "insert_columns", col, count)


def delete_columns(sheet: Sheet, col: int, count: int = 1) -> SheetEditReport:
    """Delete columns ``[col, col+count)``."""
    return _apply_structural(sheet, "delete_columns", col, count)

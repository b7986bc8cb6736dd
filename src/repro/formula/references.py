"""Reference extraction: from formula AST to graph dependencies.

Each formula is parsed to the set of ranges it references (Sec. II-A); a
directed edge is then added from every referenced range to the formula
cell.  Alongside the plain geometry we keep the ``$`` fixedness of the
head and tail cells — the *dollar-sign cues* that TACO's heuristic edge
selection uses to guess which pattern a dependency follows if it was
produced by autofill (Sec. IV-A).

The same information also exists *position-free*: a :class:`RefSpec`
records where a reference's corners sit relative to any host cell, so an
autofill family can share one reference shape
(:mod:`repro.formula.template`) and resolve it per member by offset
arithmetic instead of walking a per-cell AST.
"""

from __future__ import annotations

from typing import NamedTuple

from ..grid.range import Range
from ..grid.ref import CellRef
from .ast_nodes import CellNode, Node, RangeNode, walk
from .parser import parse_formula

__all__ = [
    "AxisRef",
    "RefSpec",
    "axis_refs",
    "ReferencedRange",
    "extract_references",
    "reference_specs",
    "references_of_formula",
]


def _cue(ref) -> str:
    """The pattern this reference would follow under autofill.

    ``$``-fixed head and tail -> FF; fixed head only -> FR; fixed tail
    only -> RF; no markers -> RR.  A cell axis counts as fixed only
    when both its column and row carry ``$`` (mixed references give no
    reliable cue and default to the relative interpretation).
    """
    if ref.head_fixed and ref.tail_fixed:
        return "FF"
    if ref.head_fixed:
        return "FR"
    if ref.tail_fixed:
        return "RF"
    return "RR"


class ReferencedRange(NamedTuple):
    """One range referenced by a formula, with its autofill cues."""

    range: Range
    head_fixed: bool
    tail_fixed: bool
    sheet: str | None = None

    cue = property(_cue)


def _is_fixed(ref: CellRef) -> bool:
    return ref.col_fixed and ref.row_fixed


class AxisRef(NamedTuple):
    """One axis of a template reference: absolute or host-relative.

    ``fixed`` axes carry the absolute coordinate in ``value``; relative
    axes carry the delta from the host cell.
    """

    fixed: bool
    value: int

    def at(self, host: int) -> int:
        """Resolve against a host coordinate."""
        return self.value if self.fixed else host + self.value


def axis_refs(ref: CellRef, host_col: int, host_row: int) -> tuple[AxisRef, AxisRef]:
    """``ref`` as (column axis, row axis) relative to the host cell."""
    col = AxisRef(True, ref.col) if ref.col_fixed else AxisRef(False, ref.col - host_col)
    row = AxisRef(True, ref.row) if ref.row_fixed else AxisRef(False, ref.row - host_row)
    return col, row


class RefSpec(NamedTuple):
    """One reference of a formula *template*: where its head and tail
    corners sit relative to any host, plus the ``$`` cues and the sheet
    qualifier.  Corners stay as written (``A$5:A1`` may cross under a
    shift); resolving against a host normalises them."""

    head_col: AxisRef
    head_row: AxisRef
    tail_col: AxisRef
    tail_row: AxisRef
    head_fixed: bool
    tail_fixed: bool
    sheet: str | None

    cue = property(_cue)

    def columns_at(self, col: int) -> tuple[int, int]:
        """The reference's column span for a host in column ``col``."""
        c1, c2 = self.head_col.at(col), self.tail_col.at(col)
        return (c1, c2) if c1 <= c2 else (c2, c1)

    def span_at(self, col: int, row: int) -> tuple[str | None, int, int, int, int]:
        """``(sheet, c1, r1, c2, r2)`` for a host at ``(col, row)``."""
        c1, c2 = self.columns_at(col)
        r1, r2 = self.head_row.at(row), self.tail_row.at(row)
        return (self.sheet, c1, r1, c2, r2) if r1 <= r2 else (self.sheet, c1, r2, c2, r1)


def reference_specs(ast: Node, host_col: int, host_row: int) -> tuple[RefSpec, ...]:
    """Every reference of ``ast`` as a position-free :class:`RefSpec`,
    in formula order.  Exact repeats collapse here (they coincide at
    every host); references that coincide only at *some* hosts are
    deduplicated when the specs are resolved."""
    out: list[RefSpec] = []
    for node in walk(ast):
        if isinstance(node, CellNode):
            col, row = axis_refs(node.ref, host_col, host_row)
            fixed = _is_fixed(node.ref)
            spec = RefSpec(col, row, col, row, fixed, fixed, node.sheet)
        elif isinstance(node, RangeNode):
            spec = RefSpec(
                *axis_refs(node.head, host_col, host_row),
                *axis_refs(node.tail, host_col, host_row),
                _is_fixed(node.head), _is_fixed(node.tail), node.sheet,
            )
        else:
            continue
        if spec not in out:
            out.append(spec)
    return tuple(out)


def extract_references(ast: Node) -> list[ReferencedRange]:
    """All ranges referenced anywhere in the AST, deduplicated.

    Two references to the same (sheet, range) pair collapse into one
    dependency; if their cues disagree, the first occurrence wins, which
    matches reading the formula left to right.
    """
    out: list[ReferencedRange] = []
    seen: set[tuple[str | None, Range]] = set()
    for node in walk(ast):
        if isinstance(node, CellNode):
            rng = node.to_range()
            key = (node.sheet, rng)
            if key in seen:
                continue
            seen.add(key)
            fixed = _is_fixed(node.ref)
            out.append(ReferencedRange(rng, fixed, fixed, node.sheet))
        elif isinstance(node, RangeNode):
            rng = node.to_range()
            key = (node.sheet, rng)
            if key in seen:
                continue
            seen.add(key)
            out.append(
                ReferencedRange(rng, _is_fixed(node.head), _is_fixed(node.tail), node.sheet)
            )
    return out


def references_of_formula(text: str) -> list[ReferencedRange]:
    """Parse a formula string and extract its referenced ranges."""
    return extract_references(parse_formula(text))

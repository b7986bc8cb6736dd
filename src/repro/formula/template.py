"""Formula templates: what an autofill family shares, stored once.

Dragging a formula down a column makes thousands of cells that differ
only in where they sit: rendered relative to its host, every one of them
is the same R1C1 text (:mod:`repro.formula.r1c1`).  A
:class:`FormulaTemplate` is that shared part — the key, one AST (the
*anchor's*, with the host it was written for) and the position-free
shape of every reference — and a formula cell is just *(template,
host)*: its references are offset arithmetic on the specs, its AST and
text are rendered from the anchor on demand, and the compiled closure is
reached through the key without a per-cell AST ever existing.

Templates are interned by key (:func:`intern_template`), weakly: a
template lives exactly as long as some cell (or compiled plan) uses it,
so a stream of unique formulas cannot hoard them.
"""

from __future__ import annotations

import weakref

from ..grid.range import Range
from ..grid.ref import MAX_COL, MAX_ROW
from .ast_nodes import Node
from .r1c1 import to_r1c1
from .references import ReferencedRange, reference_specs

__all__ = ["FormulaTemplate", "intern_template"]


def _host_span(offsets: list[int], limit: int) -> tuple[int, int]:
    """Hosts along one axis at which every relative offset stays on the grid."""
    if not offsets:
        return 1, limit
    return max(1, 1 - min(offsets)), min(limit, limit - max(offsets))


class FormulaTemplate:
    """One autofill family's formula, position-free.

    ``ast`` is the formula as written at host ``(col, row)``; any other
    member's formula is that AST under the autofill shift.  ``refs``
    holds one :class:`~repro.formula.references.RefSpec` per distinct
    reference, in formula order.  Get instances from
    :func:`intern_template`; two live templates never share a key.
    """

    __slots__ = ("key", "ast", "col", "row", "refs", "_hosts", "__weakref__")

    def __init__(self, key: str, ast: Node, col: int, row: int):
        self.key = key
        self.ast = ast
        self.col = col
        self.row = row
        self.refs = reference_specs(ast, col, row)
        cols = [a.value for s in self.refs for a in (s.head_col, s.tail_col) if not a.fixed]
        rows = [a.value for s in self.refs for a in (s.head_row, s.tail_row) if not a.fixed]
        self._hosts = (*_host_span(cols, MAX_COL), *_host_span(rows, MAX_ROW))

    def __reduce__(self):
        # Workers re-intern what the parent ships: one template per family.
        return intern_template, (self.ast, self.col, self.row)

    def admits(self, col: int, row: int) -> bool:
        """Whether a cell at ``(col, row)`` can be a member: no relative
        reference may leave the grid (such a cell's formula holds a
        ``#REF!`` literal instead, which is a different template)."""
        c_lo, c_hi, r_lo, r_hi = self._hosts
        return c_lo <= col <= c_hi and r_lo <= row <= r_hi

    def run_pieces(
        self, col: int, r0: int, r1: int, sheet: str | None = None, cuts=()
    ) -> list[tuple[int, int]]:
        """Cut the members at rows ``r0..r1`` of column ``col`` into
        pieces ``(first_row, last_row)`` within which every member states
        the same references, each corner fixed or moving with the row.

        Two things end a piece.  A reference's corners *cross*:
        ``A$5:A1`` is a shrinking window down to row 5 and a growing one
        below it, so the run is cut after row 5.  Two references
        *coincide* at one host and collapse into one dependency there
        (``A1+A$5`` at row 5, first cue wins): that host is a piece of
        its own.  An autofilled column with neither is one piece.
        ``sheet`` names the hosts' sheet: a reference qualified with it
        coincides with an unqualified one (``A1+S!A$5`` on sheet ``S``).
        ``cuts`` adds rows after which a piece must end anyway (the lines
        of a structural edit, :mod:`repro.sheet.structural`).
        """
        cuts = set(cuts)            # rows after which a new piece starts

        def meeting(a, b) -> int | None:
            # A fixed row and a relative one agree at exactly one host.
            if a.fixed == b.fixed:
                return None
            return a.value - b.value if a.fixed else b.value - a.value

        for i, spec in enumerate(self.refs):
            row = meeting(spec.head_row, spec.tail_row)
            if row is not None and row > r0:
                cuts.add(row)
            for other in self.refs[:i]:
                if (
                    (other.sheet != spec.sheet and {other.sheet, spec.sheet} != {None, sheet})
                    or other.columns_at(col) != spec.columns_at(col)
                ):
                    continue
                for a in (spec.head_row, spec.tail_row):
                    for b in (other.head_row, other.tail_row):
                        row = meeting(a, b)
                        if (
                            row is not None and r0 <= row <= r1
                            and spec.span_at(col, row)[1:] == other.span_at(col, row)[1:]
                        ):
                            cuts.update((row - 1, row))
        pieces, start = [], r0
        for cut in sorted(cut for cut in cuts if r0 <= cut < r1):
            pieces.append((start, cut))
            start = cut + 1
        pieces.append((start, r1))
        return pieces

    def text_at(self, col: int, row: int) -> str:
        """The member's formula text (no leading ``=``), rendered off
        the anchor."""
        return self.ast.to_formula(col - self.col, row - self.row)

    def ast_at(self, col: int, row: int) -> Node:
        """The member's own AST — allocated per call off the anchor."""
        if col == self.col and row == self.row:
            return self.ast
        return self.ast.shifted(col - self.col, row - self.row)

    def spans_at(self, col: int, row: int) -> list[tuple[str | None, int, int, int, int]]:
        """The member's references as bare geometry — ``(sheet, c1, r1,
        c2, r2)``, corners normalised per host, references that coincide
        at this host collapsed onto the first.  What dependency ordering
        needs, without an object per reference."""
        out: list[tuple[str | None, int, int, int, int]] = []
        for (hcf, hcv), (hrf, hrv), (tcf, tcv), (trf, trv), _, _, sheet in self.refs:
            c1 = hcv if hcf else col + hcv
            r1 = hrv if hrf else row + hrv
            c2 = tcv if tcf else col + tcv
            r2 = trv if trf else row + trv
            if c1 > c2:
                c1, c2 = c2, c1
            if r1 > r2:
                r1, r2 = r2, r1
            span = (sheet, c1, r1, c2, r2)
            if span not in out:
                out.append(span)
        return out

    def references_at(self, col: int, row: int) -> list[ReferencedRange]:
        """What ``extract_references(self.ast_at(col, row))`` returns,
        without the AST (coinciding references keep the first one's cues)."""
        out: list[ReferencedRange] = []
        seen = set()
        for spec in self.refs:
            span = spec.span_at(col, row)
            if span not in seen:
                seen.add(span)
                out.append(ReferencedRange(
                    Range(*span[1:]), spec.head_fixed, spec.tail_fixed, spec.sheet
                ))
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FormulaTemplate({self.key!r})"


_TEMPLATES: "weakref.WeakValueDictionary[str, FormulaTemplate]" = weakref.WeakValueDictionary()


def intern_template(ast: Node, col: int, row: int) -> FormulaTemplate:
    """The template of the formula ``ast`` hosted at ``(col, row)``."""
    key = to_r1c1(ast, col, row)
    template = _TEMPLATES.get(key)
    if template is None:
        template = _TEMPLATES[key] = FormulaTemplate(key, ast, col, row)
    return template

"""The cell: a pure value or a formula with a cached evaluated value."""

from __future__ import annotations

from ..formula.ast_nodes import Node
from ..formula.parser import parse_formula
from ..formula.r1c1 import to_r1c1
from ..formula.references import ReferencedRange
from ..formula.template import FormulaTemplate, intern_template

__all__ = ["Cell"]


class Cell:
    """One spreadsheet cell.

    A cell holds either a *pure value* or a formula; for formula cells
    ``value`` caches the last evaluated result.  A formula cell owns no
    AST: it is its *host* position plus the
    :class:`~repro.formula.template.FormulaTemplate` it shares with the
    rest of its autofill family, and everything else — references, AST,
    R1C1 key, text — is derived from those two on demand.  A cell set
    from text keeps the text as entered and joins its template the first
    time anything needs more than the text, since workload generation
    and file loading touch far more cells than they ever evaluate.
    """

    __slots__ = ("value", "_formula_text", "_template", "_col", "_row")

    def __init__(
        self,
        value=None,
        formula_text: str | None = None,
        formula_ast: Node | None = None,
        *,
        template: FormulaTemplate | None = None,
        host: tuple[int, int] = (1, 1),
    ):
        self.value = value
        self._col, self._row = host
        self._formula_text = formula_text
        if formula_ast is not None:
            template = intern_template(formula_ast, *host)
        self._template = template

    @property
    def is_formula(self) -> bool:
        return self._formula_text is not None or self._template is not None

    @property
    def template(self) -> FormulaTemplate | None:
        """The shared template (None for pure values); a cell set from
        text parses and joins it here, once."""
        template = self._template
        if template is None and self._formula_text is not None:
            template = self._template = intern_template(
                parse_formula(self._formula_text), self._col, self._row
            )
        return template

    @property
    def source_text(self) -> str | None:
        """The formula body as it was entered, for cells set from text;
        None for cells that only know their template (autofill members,
        rewritten formulas) and for pure values.  Never parses."""
        return self._formula_text

    @property
    def formula_ast(self) -> Node | None:
        """This cell's own AST, rendered off the template per call."""
        template = self.template
        return None if template is None else template.ast_at(self._col, self._row)

    @property
    def formula_text(self) -> str | None:
        """The formula body without the leading ``=`` (None for pure values)."""
        template = self._template
        if self._formula_text is not None or template is None:
            return self._formula_text
        return template.text_at(self._col, self._row)

    @property
    def display_formula(self) -> str | None:
        text = self.formula_text
        return None if text is None else "=" + text

    def template_key(self, col: int, row: int) -> str:
        """The formula's R1C1 template key as seen from ``(col, row)``.

        Cells produced by autofill share one key, which is what lets the
        template registry compile a 10,000-row column exactly once.
        Empty string for pure-value cells.
        """
        template = self.template
        if template is None:
            return ""
        if col == self._col and row == self._row:
            return template.key
        return to_r1c1(self.formula_ast, col, row)

    @property
    def references(self) -> list[ReferencedRange]:
        """Ranges referenced by this cell's formula (empty for pure values)."""
        template = self.template
        return [] if template is None else template.references_at(self._col, self._row)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_formula:
            return f"Cell(={self.formula_text}, value={self.value!r})"
        return f"Cell({self.value!r})"

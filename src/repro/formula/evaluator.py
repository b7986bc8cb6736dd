"""Formula evaluation against a spreadsheet backend.

The evaluator walks a parsed AST and produces a scalar value (or an
:class:`~repro.formula.errors.ExcelError`).  It is deliberately
independent of the sheet model: any object satisfying
:class:`~repro.formula.values.CellResolver` can back it, which is what
lets the recalculation engine, the examples, and the tests share it.
Operators and builtins are the ones :mod:`repro.formula.functions`
declares; the template compiler (:mod:`repro.formula.compile`) runs the
same declarations, and this tree-walker is the
``evaluation="interpreter"`` oracle that the compiled path is checked
against.
"""

from __future__ import annotations

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
from .errors import NAME_ERROR, VALUE_ERROR, ExcelError
from .parser import parse_formula
from .values import CellResolver, ErrorSignal, RangeValue
from .functions import OPERATORS, REGISTRY

__all__ = ["Evaluator", "EvalContext"]


class EvalContext:
    """Where a formula is being evaluated: host sheet and cell position,
    and how far that host is from the one the AST was written for (the
    autofill shift its relative references take, ``(0, 0)`` normally)."""

    __slots__ = ("evaluator", "sheet", "col", "row", "dc", "dr")

    def __init__(self, evaluator: "Evaluator", sheet: str | None, col: int, row: int,
                 dc: int = 0, dr: int = 0):
        self.evaluator = evaluator
        self.sheet = sheet
        self.col = col
        self.row = row
        self.dc = dc
        self.dr = dr

    def eval(self, node: Node):
        """Evaluate a sub-expression in this context (used by lazy builtins)."""
        return self.evaluator._eval(node, self)

    def eval_reference(self, node: Node) -> Range:
        """Resolve a reference argument to its range (for ROW/COLUMN/ROWS)."""
        if isinstance(node, (CellNode, RangeNode)):
            return node.to_range(self.dc, self.dr)
        raise ErrorSignal(VALUE_ERROR)


class Evaluator:
    def __init__(self, resolver: CellResolver):
        self._resolver = resolver

    def evaluate(self, node: Node, sheet: str | None = None, col: int = 1, row: int = 1,
                 written_at: tuple[int, int] | None = None):
        """Evaluate an AST to a value; errors come back as ExcelError values.

        ``written_at`` evaluates a template's anchor AST on behalf of
        another member: the host the AST was written for, when it is not
        ``(col, row)`` — relative references resolve displaced by the
        difference, exactly as the member's own (shifted) AST would.
        """
        if written_at is None:
            ctx = EvalContext(self, sheet, col, row)
        else:
            ctx = EvalContext(self, sheet, col, row, col - written_at[0], row - written_at[1])
        try:
            value = self._eval(node, ctx)
        except ErrorSignal as signal:
            return signal.error
        except RecursionError:
            return ExcelError("#VALUE!")
        if isinstance(value, RangeValue):
            # Implicit intersection of a bare range at top level.
            if value.width == 1 and value.height == 1:
                return value.get(0, 0)
            return VALUE_ERROR
        return value

    def evaluate_formula(
        self, text: str, sheet: str | None = None, col: int = 1, row: int = 1
    ):
        return self.evaluate(parse_formula(text), sheet, col, row)

    # -- recursive evaluation ------------------------------------------------

    def _eval(self, node: Node, ctx: EvalContext):
        if isinstance(node, Number):
            return node.value
        if isinstance(node, String):
            return node.value
        if isinstance(node, Boolean):
            return node.value
        if isinstance(node, ErrorLiteral):
            raise ErrorSignal(ExcelError(node.code))
        if isinstance(node, CellNode):
            ref = node.ref
            value = self._resolver.get_value(
                node.sheet if node.sheet is not None else ctx.sheet,
                ref.col if ref.col_fixed else ref.col + ctx.dc,
                ref.row if ref.row_fixed else ref.row + ctx.dr,
            )
            if isinstance(value, ExcelError):
                raise ErrorSignal(value)
            return value
        if isinstance(node, RangeNode):
            sheet = node.sheet if node.sheet is not None else ctx.sheet
            return RangeValue(node.to_range(ctx.dc, ctx.dr), sheet, self._resolver)
        if isinstance(node, UnaryOp):
            return OPERATORS[node.op, 1].scalar(self._eval(node.operand, ctx))
        if isinstance(node, BinaryOp):
            # Both operands are evaluated, left first, before either is
            # coerced: the right operand's own error wins over the left's
            # coercion error.
            return OPERATORS[node.op, 2].scalar(self._eval(node.left, ctx),
                                                self._eval(node.right, ctx))
        if isinstance(node, FunctionCall):
            return self._eval_call(node, ctx)
        raise ErrorSignal(VALUE_ERROR)

    def _eval_call(self, node: FunctionCall, ctx: EvalContext):
        spec = REGISTRY.get(node.name)
        if spec is None:
            raise ErrorSignal(NAME_ERROR)
        arity = len(node.args)
        if arity < spec.min_args or (spec.max_args is not None and arity > spec.max_args):
            raise ErrorSignal(VALUE_ERROR)
        if spec.lazy:
            return spec.impl(ctx, node.args)
        values = [self._eval(arg, ctx) for arg in node.args]
        return spec.impl(ctx, *values)

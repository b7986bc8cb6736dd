"""AST node types for the formula language.

Every node knows how to render itself back to formula text
(:meth:`Node.to_formula`) and how to produce a *shifted* copy of itself
(:meth:`Node.shifted`) — the autofill transformation that moves relative
references while leaving ``$``-fixed axes in place.  Shifts that fall off
the sheet collapse the reference into a ``#REF!`` error literal, matching
spreadsheet behaviour.  ``to_formula(dc, dr)`` renders the text of the
shifted copy without building it, which is how an autofill family's
members get their text off the one AST they share.
"""

from __future__ import annotations

from typing import Iterator

from ..grid.range import Range
from ..grid.ref import CellRef
from .errors import REF_ERROR

__all__ = [
    "Node",
    "Number",
    "String",
    "Boolean",
    "ErrorLiteral",
    "CellNode",
    "RangeNode",
    "FunctionCall",
    "BinaryOp",
    "UnaryOp",
    "walk",
]


class Node:
    """Base class for all formula AST nodes."""

    __slots__ = ()

    def to_formula(self, dc: int = 0, dr: int = 0) -> str:
        """The formula text — of ``self.shifted(dc, dr)`` when a
        displacement is given."""
        raise NotImplementedError

    def children(self) -> tuple["Node", ...]:
        return ()

    def shifted(self, dc: int, dr: int) -> "Node":
        """Autofill shift: move relative references by ``(dc, dr)``."""
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.to_formula()})"

    def __eq__(self, other: object) -> bool:
        if type(self) is not type(other):
            return NotImplemented
        return self.to_formula() == other.to_formula()

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.to_formula()))


class Number(Node):
    __slots__ = ("value",)

    def __init__(self, value: float):
        self.value = value

    def to_formula(self, dc: int = 0, dr: int = 0) -> str:
        if self.value == int(self.value) and abs(self.value) < 1e15:
            return str(int(self.value))
        return repr(self.value)


class String(Node):
    __slots__ = ("value",)

    def __init__(self, value: str):
        self.value = value

    def to_formula(self, dc: int = 0, dr: int = 0) -> str:
        return '"' + self.value.replace('"', '""') + '"'


class Boolean(Node):
    __slots__ = ("value",)

    def __init__(self, value: bool):
        self.value = value

    def to_formula(self, dc: int = 0, dr: int = 0) -> str:
        return "TRUE" if self.value else "FALSE"


class ErrorLiteral(Node):
    __slots__ = ("code",)

    def __init__(self, code: str):
        self.code = code

    def to_formula(self, dc: int = 0, dr: int = 0) -> str:
        return self.code


def _format_sheet_prefix(sheet: str | None) -> str:
    if sheet is None:
        return ""
    if sheet.isalnum() and not sheet[0].isdigit():
        return f"{sheet}!"
    return "'" + sheet.replace("'", "''") + "'!"


def _a1_displaced(ref: CellRef, dc: int, dr: int) -> str | None:
    """``ref.shifted(dc, dr).to_a1()``; None where the shift leaves the sheet."""
    if dc or dr:
        try:
            ref = ref.shifted(dc, dr)
        except ReferenceError:
            return None
    return ref.to_a1()


class CellNode(Node):
    """A single-cell reference, optionally sheet-qualified."""

    __slots__ = ("ref", "sheet")

    def __init__(self, ref: CellRef, sheet: str | None = None):
        self.ref = ref
        self.sheet = sheet

    def to_formula(self, dc: int = 0, dr: int = 0) -> str:
        text = _a1_displaced(self.ref, dc, dr)
        return REF_ERROR.code if text is None else _format_sheet_prefix(self.sheet) + text

    def to_range(self, dc: int = 0, dr: int = 0) -> Range:
        """The referenced cell — as :meth:`shifted` by ``(dc, dr)`` would
        leave it, when given (the shift must stay on the sheet)."""
        ref = self.ref
        return Range.cell(
            ref.col if ref.col_fixed else ref.col + dc,
            ref.row if ref.row_fixed else ref.row + dr,
        )

    def shifted(self, dc: int, dr: int) -> Node:
        try:
            return CellNode(self.ref.shifted(dc, dr), self.sheet)
        except ReferenceError:
            return ErrorLiteral(REF_ERROR.code)


class RangeNode(Node):
    """A rectangular range reference ``head:tail``, optionally sheet-qualified."""

    __slots__ = ("head", "tail", "sheet")

    def __init__(self, head: CellRef, tail: CellRef, sheet: str | None = None):
        self.head = head
        self.tail = tail
        self.sheet = sheet

    def to_formula(self, dc: int = 0, dr: int = 0) -> str:
        head, tail = _a1_displaced(self.head, dc, dr), _a1_displaced(self.tail, dc, dr)
        if head is None or tail is None:
            return REF_ERROR.code
        return f"{_format_sheet_prefix(self.sheet)}{head}:{tail}"

    def to_range(self, dc: int = 0, dr: int = 0) -> Range:
        """The referenced range, corners normalised — as :meth:`shifted`
        by ``(dc, dr)`` would leave it, when given."""
        head, tail = self.head, self.tail
        c1 = head.col if head.col_fixed else head.col + dc
        r1 = head.row if head.row_fixed else head.row + dr
        c2 = tail.col if tail.col_fixed else tail.col + dc
        r2 = tail.row if tail.row_fixed else tail.row + dr
        return Range(min(c1, c2), min(r1, r2), max(c1, c2), max(r1, r2))

    def shifted(self, dc: int, dr: int) -> Node:
        try:
            return RangeNode(self.head.shifted(dc, dr), self.tail.shifted(dc, dr), self.sheet)
        except ReferenceError:
            return ErrorLiteral(REF_ERROR.code)


class FunctionCall(Node):
    __slots__ = ("name", "args")

    def __init__(self, name: str, args: "list[Node]"):
        self.name = name.upper()
        self.args = list(args)

    def to_formula(self, dc: int = 0, dr: int = 0) -> str:
        return f"{self.name}({','.join(arg.to_formula(dc, dr) for arg in self.args)})"

    def children(self) -> tuple[Node, ...]:
        return tuple(self.args)

    def shifted(self, dc: int, dr: int) -> Node:
        return FunctionCall(self.name, [arg.shifted(dc, dr) for arg in self.args])


class BinaryOp(Node):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Node, right: Node):
        self.op = op
        self.left = left
        self.right = right

    def to_formula(self, dc: int = 0, dr: int = 0) -> str:
        return f"({self.left.to_formula(dc, dr)}{self.op}{self.right.to_formula(dc, dr)})"

    def children(self) -> tuple[Node, ...]:
        return (self.left, self.right)

    def shifted(self, dc: int, dr: int) -> Node:
        return BinaryOp(self.op, self.left.shifted(dc, dr), self.right.shifted(dc, dr))


class UnaryOp(Node):
    """Prefix ``-``/``+`` or postfix ``%`` (op stored as ``%``)."""

    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Node):
        self.op = op
        self.operand = operand

    def to_formula(self, dc: int = 0, dr: int = 0) -> str:
        if self.op == "%":
            return f"{self.operand.to_formula(dc, dr)}%"
        return f"{self.op}{self.operand.to_formula(dc, dr)}"

    def children(self) -> tuple[Node, ...]:
        return (self.operand,)

    def shifted(self, dc: int, dr: int) -> Node:
        return UnaryOp(self.op, self.operand.shifted(dc, dr))


def walk(node: Node) -> Iterator[Node]:
    """Pre-order traversal of a formula AST."""
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        stack.extend(reversed(current.children()))

"""Pratt parser for spreadsheet formulae.

Operator precedence follows Excel: comparisons bind loosest, then text
concatenation ``&``, additive, multiplicative, exponentiation (which Excel
evaluates *left*-associatively, unlike mathematical convention), prefix
sign, and postfix percent.  Range construction ``A1:B2`` binds tightest.
Function calls and parenthesised groups nest at most ``MAX_NESTING``
deep, Excel's limit; deeper input is a :class:`FormulaSyntaxError`.
"""

from __future__ import annotations

from functools import lru_cache

from ..grid.ref import CellRef
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
from .errors import FormulaSyntaxError
from .tokenizer import Token, TokenKind, tokenize

__all__ = ["MAX_NESTING", "parse_formula", "Parser"]

#: How deep function calls and parenthesised groups may nest (Excel's 64).
MAX_NESTING = 64

_BINARY_PRECEDENCE = {
    "=": 1, "<>": 1, "<": 1, "<=": 1, ">": 1, ">=": 1,
    "&": 2,
    "+": 3, "-": 3,
    "*": 4, "/": 4,
    "^": 5,
}
_PREFIX_PRECEDENCE = 6
_PERCENT_PRECEDENCE = 7


@lru_cache(maxsize=4096)
def _parse_body(body: str) -> Node:
    return Parser(tokenize(body)).parse()


def parse_formula(text: str) -> Node:
    """Parse a formula into an AST.

    Accepts either a full formula with a leading ``=`` or a bare
    expression body.  Results are memoised in a bounded LRU cache keyed
    on the body text: AST nodes are immutable once built (``shifted``
    returns copies), so repeated parses of the same text — re-evaluating
    an edited cell, loading a column of identical absolute formulae —
    share one tree.  ``parse_formula.cache_info()`` /
    ``parse_formula.cache_clear()`` expose the cache for tests.
    """
    body = text[1:] if text.startswith("=") else text
    return _parse_body(body)


parse_formula.cache_info = _parse_body.cache_info
parse_formula.cache_clear = _parse_body.cache_clear


class Parser:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._i = 0
        self._depth = 0

    # -- token plumbing ------------------------------------------------------

    def _peek(self) -> Token:
        return self._tokens[self._i]

    def _advance(self) -> Token:
        token = self._tokens[self._i]
        if token.kind != TokenKind.EOF:
            self._i += 1
        return token

    def _expect(self, kind: str) -> Token:
        token = self._peek()
        if token.kind != kind:
            raise FormulaSyntaxError(
                f"expected {kind}, found {token.kind} {token.text!r}", token.pos
            )
        return self._advance()

    def _nested(self, opener: Token) -> None:
        """Enter one more call or group, opened at ``opener``."""
        self._depth += 1
        if self._depth > MAX_NESTING:
            raise FormulaSyntaxError(
                f"more than {MAX_NESTING} nested calls and parentheses", opener.pos
            )

    # -- grammar ---------------------------------------------------------------

    def parse(self) -> Node:
        node = self._parse_expression(0)
        trailing = self._peek()
        if trailing.kind != TokenKind.EOF:
            raise FormulaSyntaxError(
                f"unexpected trailing input {trailing.text!r}", trailing.pos
            )
        return node

    def _parse_expression(self, min_precedence: int) -> Node:
        left = self._parse_prefix()
        while True:
            token = self._peek()
            if token.kind == TokenKind.PERCENT:
                if _PERCENT_PRECEDENCE < min_precedence:
                    break
                self._advance()
                left = UnaryOp("%", left)
                continue
            if token.kind != TokenKind.OP:
                break
            precedence = _BINARY_PRECEDENCE.get(token.text)
            if precedence is None or precedence < min_precedence:
                break
            self._advance()
            # All Excel binary operators are left-associative (including ^).
            right = self._parse_expression(precedence + 1)
            left = BinaryOp(token.text, left, right)
        return left

    def _parse_prefix(self) -> Node:
        token = self._peek()
        if token.kind == TokenKind.OP and token.text in ("-", "+"):
            self._advance()
            operand = self._parse_expression(_PREFIX_PRECEDENCE)
            if token.text == "+":
                return operand
            return UnaryOp("-", operand)
        return self._parse_primary()

    def _parse_primary(self) -> Node:
        token = self._peek()
        if token.kind == TokenKind.NUMBER:
            self._advance()
            return Number(float(token.text))
        if token.kind == TokenKind.STRING:
            self._advance()
            return String(token.text)
        if token.kind == TokenKind.ERROR:
            self._advance()
            return ErrorLiteral(token.text)
        if token.kind == TokenKind.LPAREN:
            self._advance()
            self._nested(token)
            inner = self._parse_expression(0)
            self._expect(TokenKind.RPAREN)
            self._depth -= 1
            return inner
        if token.kind == TokenKind.SHEET:
            self._advance()
            return self._parse_reference(sheet=token.text)
        if token.kind == TokenKind.CELL:
            return self._parse_reference(sheet=None)
        if token.kind == TokenKind.IDENT:
            return self._parse_ident()
        raise FormulaSyntaxError(
            f"unexpected token {token.kind} {token.text!r}", token.pos
        )

    def _parse_reference(self, sheet: str | None) -> Node:
        head_token = self._expect(TokenKind.CELL)
        head = CellRef.from_a1(head_token.text)
        if self._peek().kind == TokenKind.COLON:
            self._advance()
            tail_token = self._expect(TokenKind.CELL)
            tail = CellRef.from_a1(tail_token.text)
            return RangeNode(head, tail, sheet)
        return CellNode(head, sheet)

    def _parse_ident(self) -> Node:
        token = self._advance()
        name = token.text.upper()
        if self._peek().kind == TokenKind.LPAREN:
            self._advance()
            self._nested(token)
            args: list[Node] = []
            if self._peek().kind != TokenKind.RPAREN:
                args.append(self._parse_expression(0))
                while self._peek().kind == TokenKind.COMMA:
                    self._advance()
                    args.append(self._parse_expression(0))
            self._expect(TokenKind.RPAREN)
            self._depth -= 1
            return FunctionCall(name, args)
        if name == "TRUE":
            return Boolean(True)
        if name == "FALSE":
            return Boolean(False)
        # Bare names (named ranges) are out of scope: they evaluate to
        # #NAME? just as an unknown identifier would in a spreadsheet.
        return ErrorLiteral("#NAME?")

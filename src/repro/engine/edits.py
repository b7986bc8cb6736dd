"""One edit vocabulary: what an engine, a batch, the journal, the service
and the CLI all mean by "an update".

The paper's host model (Sec. I, VI-A; maintenance in Sec. IV-C) makes
every update the same three steps — mutate, maintain the graph, mark
dependents.  Only the mutation differs, and it is one of five frozen
values, each carrying its validation (``check``, run before anything
mutates) and its piece of the journal format (``to_record`` /
``from_record``):

================================  ========================================
edit                              fragment of a version-1 journal record
================================  ========================================
``SetValue(pos, value)``          ``[col, row, "value", encoded value]``
``SetFormula(pos, text)``         ``[col, row, "formula", text]`` (no ``=``)
``ClearCell(pos)``                ``[col, row, "clear", null]``
``ClearRange(rng)``               ``[c1, r1, c2, r2]``
``Structural(op, index, count)``  ``[op, index, count]``
================================  ========================================

A journal record is a serialised list of edits (:func:`to_records`,
:func:`from_record`): a ``cell`` or ``structural`` record holds one, a
``batch`` record one commit's — its structural ops, its range clears,
then its coalesced cell edits, the order a commit applies them in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from ..formula.parser import parse_formula
from ..grid.range import Range
from ..io.snapshot import decode_value, encode_value
from ..sheet.sheet import _coerce_pos
from ..sheet.structural import STRUCTURAL_OPS

__all__ = [
    "ClearCell", "ClearRange", "Edit", "JournalFormatError", "SetFormula",
    "SetValue", "Structural", "cell_edit", "from_record", "to_records",
]


class JournalFormatError(ValueError):
    """Raised when a journal's header is unusable (wrong magic, or a
    format version newer than this build), or when a complete record does
    not describe edits (an unknown kind, op or sheet).  Torn or corrupt
    record tails are never an error — they are cut at the last complete
    record."""


@dataclass(frozen=True, slots=True)
class _CellEdit:
    """A cell edit: ``pos`` is ``(col, row)`` (A1 text is accepted)."""

    pos: tuple[int, int]
    #: The list an edit joins in a ``batch`` record.
    section: ClassVar[str] = "ops"

    def __post_init__(self) -> None:
        object.__setattr__(self, "pos", _coerce_pos(self.pos))

    def check(self, journaled: bool) -> None:
        """Raise if the edit cannot be applied (or, ``journaled``,
        recorded) — before anything mutates."""

    def to_record(self) -> list:
        return [*self.pos, self.op, encode_value(self.payload)]

    @staticmethod
    def from_record(fragment) -> "SetValue | SetFormula | ClearCell":
        col, row, op, payload = fragment
        return cell_edit(op, (int(col), int(row)), decode_value(payload))

    def _standalone(self, sheet: str, cross_sheet: bool) -> dict:
        record = {"kind": "cell", "sheet": sheet, "op": self.op, "cell": list(self.pos)}
        if type(self) is not ClearCell:
            record["payload"] = encode_value(self.payload)
        return record


@dataclass(frozen=True, slots=True)
class SetValue(_CellEdit):
    """Write a literal (None empties the cell, as on the sheet)."""

    value: object
    op: ClassVar[str] = "value"

    @property
    def payload(self):
        return self.value

    def check(self, journaled: bool) -> None:
        # A value must fit the record format, or sheet and journal diverge.
        if journaled:
            encode_value(self.value)

    def write(self, sheet) -> None:
        sheet.set_value(self.pos, self.value)


@dataclass(frozen=True, slots=True)
class SetFormula(_CellEdit):
    """Install a formula; ``text`` is kept without its leading ``=``."""

    text: str
    op: ClassVar[str] = "formula"

    def __post_init__(self) -> None:
        _CellEdit.__post_init__(self)
        if not isinstance(self.text, str):
            raise TypeError(f"formula text must be a string, got {self.text!r}")
        if self.text.startswith("="):
            object.__setattr__(self, "text", self.text[1:])

    @property
    def payload(self) -> str:
        return self.text

    def check(self, journaled: bool) -> None:
        # Formulas parse lazily — after the sheet and graph were touched —
        # so parse first (memoised: the later parse is free).
        parse_formula(self.text)

    def write(self, sheet) -> None:
        sheet.set_formula(self.pos, self.text)


@dataclass(frozen=True, slots=True)
class ClearCell(_CellEdit):
    """Erase one cell."""

    op: ClassVar[str] = "clear"
    payload: ClassVar[None] = None

    def write(self, sheet) -> None:
        sheet.clear_cell(self.pos)


@dataclass(frozen=True, slots=True)
class ClearRange:
    """Erase a rectangle (journaled inside ``batch`` records only)."""

    rng: Range
    section: ClassVar[str] = "clears"

    def check(self, journaled: bool) -> None:
        pass

    def write(self, sheet) -> None:
        sheet.clear_range(self.rng)

    def to_record(self) -> list:
        return [self.rng.c1, self.rng.r1, self.rng.c2, self.rng.r2]

    @classmethod
    def from_record(cls, fragment) -> "ClearRange":
        return cls(Range(*(int(v) for v in fragment)))


@dataclass(frozen=True, slots=True)
class Structural:
    """Insert or delete ``count`` rows or columns at ``index``."""

    op: str
    index: int
    count: int = 1
    section: ClassVar[str] = "structural"

    def check(self, journaled: bool) -> None:
        if self.op not in STRUCTURAL_OPS:
            raise ValueError(f"unknown structural op {self.op!r}")
        if self.index < 1 or self.count < 1:
            raise ValueError("index and count must be positive")

    def to_record(self) -> list:
        return [self.op, self.index, self.count]

    @classmethod
    def from_record(cls, fragment) -> "Structural":
        op, index, count = fragment
        # Op names come from file bytes: never let one select a method.
        if op not in STRUCTURAL_OPS:
            raise JournalFormatError(f"unknown structural op {op!r} in journal")
        return cls(op, int(index), int(count))

    def _standalone(self, sheet: str, cross_sheet: bool) -> dict:
        return {"kind": "structural", "sheet": sheet, "op": self.op,
                "index": self.index, "count": self.count, "cross_sheet": cross_sheet}


Edit = SetValue | SetFormula | ClearCell | ClearRange | Structural


def cell_edit(op: str, pos, payload=None) -> "SetValue | SetFormula | ClearCell":
    """The cell edit a journal op string (``"value"`` / ``"formula"`` /
    ``"clear"``) names, over a decoded payload."""
    kind = {"value": SetValue, "formula": SetFormula, "clear": ClearCell}.get(op)
    if kind is None:
        raise JournalFormatError(f"unknown cell op {op!r}")
    return kind(pos) if kind is ClearCell else kind(pos, payload)


def to_records(sheet: str, edits, *, batch: bool = False,
               cross_sheet: bool = False) -> list[dict]:
    """The version-1 records of committed ``edits`` on ``sheet``: one
    ``batch`` record for a batch commit, else one record per edit (a
    range clear has no record of its own)."""
    if not batch:
        return [edit._standalone(sheet, cross_sheet) for edit in edits]
    record = {"kind": "batch", "sheet": sheet, "cross_sheet": cross_sheet,
              "structural": [], "clears": [], "ops": []}
    for edit in edits:
        record[edit.section].append(edit.to_record())
    return [record]


def from_record(record: dict) -> tuple:
    """One record back as ``(sheet, edits, batch, cross_sheet)``.  An
    unknown record kind or op raises :class:`JournalFormatError`; a
    malformed field, ``KeyError`` / ``TypeError`` / ``ValueError``."""
    kind, sheet = record.get("kind"), record.get("sheet")
    cross_sheet = bool(record.get("cross_sheet"))
    if kind == "cell":
        fragment = [*record["cell"], record.get("op"), record.get("payload")]
        return sheet, [_CellEdit.from_record(fragment)], False, False
    if kind == "structural":
        fragment = [record["op"], record["index"], record["count"]]
        return sheet, [Structural.from_record(fragment)], False, cross_sheet
    if kind == "batch":
        edits = [Structural.from_record(f) for f in record.get("structural", [])]
        edits += [ClearRange.from_record(f) for f in record.get("clears", [])]
        edits += [_CellEdit.from_record(f) for f in record.get("ops", [])]
        return sheet, edits, True, cross_sheet
    raise JournalFormatError(f"unknown journal record kind {kind!r}")

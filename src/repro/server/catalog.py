"""Typed operation catalog for the workbook service.

Every operation :class:`~repro.server.service.WorkbookService` accepts
is declared here as plain, JSON-serialisable data — name, description,
JSON-schema-style parameters, and whether it reads or writes — so hosts
can introspect the surface (hand it to an agent runtime, generate
client bindings, render an admin UI).

:func:`validate_op` is the single choke point every request passes
through before it touches a workbook, and :func:`parse_edits` turns a
validated write into :mod:`repro.engine.edits` edits, checking each of
``batch_edit``'s sub-edits (:data:`BATCH_EDITS`) with the same code as
a top-level op: unknown
operations, unknown or missing parameters, type mismatches, bad
references and unparseable formulas all fail with
:class:`OpValidationError`, which the service treats as a client error
rather than a crash.
"""

from __future__ import annotations

from ..engine.edits import ClearCell, ClearRange, SetFormula, SetValue, Structural
from ..grid.range import Range
from ..sheet.structural import STRUCTURAL_OPS

__all__ = [
    "BATCH_EDITS", "CATALOG", "OpValidationError", "TOOL_CATALOG",
    "parse_cell", "parse_edits", "parse_range", "validate_op",
]


class OpValidationError(ValueError):
    """A request that failed catalog validation (unknown operation,
    unknown sheet/workbook, missing or mistyped parameter)."""


def parse_range(text: str) -> Range:
    """An A1 range reference, or :class:`OpValidationError`."""
    try:
        return Range.from_a1(text)
    except ValueError as exc:
        raise OpValidationError(str(exc)) from exc


def parse_cell(text: str) -> tuple[int, int]:
    """An A1 cell reference, or :class:`OpValidationError`."""
    rng = parse_range(text)
    if not rng.is_cell:
        raise OpValidationError(f"expected a single cell, got range {text!r}")
    return rng.head


_SHEET = {
    "type": "string",
    "description": "Sheet name; the workbook's active sheet when omitted.",
}
_CELL = {"type": "string", "description": "A1-style cell reference, e.g. 'B7'."}
_RANGE = {"type": "string", "description": "A1-style range, e.g. 'A1:D20'."}
_COUNT = {
    "type": "integer",
    "description": "How many rows/columns the edit spans.",
    "minimum": 1,
    "default": 1,
}


def _entry(name: str, description: str, properties: dict, required: list, *,
           read_only: bool = False) -> dict:
    return {
        "name": name,
        "description": description,
        "read_only": read_only,
        "parameters": {"type": "object", "properties": properties, "required": required},
    }


def _structural(op: str, key: str, index: str, description: str) -> dict:
    index = {"type": "integer", "description": f"1-based {index}.", "minimum": 1}
    return _entry(op, description, {key: index, "count": _COUNT, "sheet": _SHEET}, [key])


TOOL_CATALOG: list[dict] = [
    _entry(
        "get_cell",
        "Read one cell: its current value plus a staleness flag "
        "(true while a deferred recomputation is still pending).",
        {"cell": _CELL, "sheet": _SHEET}, ["cell"], read_only=True,
    ),
    _entry(
        "get_range",
        "Read a rectangular range as a row-major grid of values, "
        "with a count of cells still awaiting recomputation.",
        {"range_ref": _RANGE, "sheet": _SHEET}, ["range_ref"], read_only=True,
    ),
    _entry(
        "summarize_sheet",
        "Describe one sheet: populated-cell and formula counts, the "
        "used extent, and how many cells are pending recomputation.",
        {"sheet": _SHEET}, [], read_only=True,
    ),
    _entry(
        "set_cell",
        "Write one literal value. Returns at the control-return "
        "point: dependents are marked stale, not yet recomputed.",
        {
            "cell": _CELL,
            "value": {
                "type": ["string", "number", "boolean", "null"],
                "description": "The literal to store (null clears to empty).",
            },
            "sheet": _SHEET,
        },
        ["cell", "value"],
    ),
    _entry(
        "set_formula",
        "Install or replace a formula. Graph maintenance plus one "
        "dependents BFS, then control returns; the cell and its "
        "dependents recompute in the background.",
        {
            "cell": _CELL,
            "formula": {"type": "string", "description": "Formula source, e.g. '=SUM(A1:A9)'."},
            "sheet": _SHEET,
        },
        ["cell", "formula"],
    ),
    _entry(
        "clear_cell",
        "Erase one cell, dropping its graph edges and marking its "
        "dependents stale.",
        {"cell": _CELL, "sheet": _SHEET}, ["cell"],
    ),
    _entry(
        "batch_edit",
        "Apply many edits as one commit: maintenance and the "
        "dependents BFS are paid once for the whole batch, and the "
        "journal carries it as a single record.",
        {
            "edits": {
                "type": "array",
                "description": (
                    "Edit objects, each {'op': 'set_value'|'set_formula'"
                    "|'clear_cell'|'clear_range'} plus that edit's parameters: "
                    "those of set_cell / set_formula / clear_cell without "
                    "'sheet', or 'range_ref' for clear_range."
                ),
            },
            "sheet": _SHEET,
        },
        ["edits"],
    ),
    _structural("insert_rows", "row", "insertion row",
                "Insert blank rows, shifting cells and rewriting references."),
    _structural("delete_rows", "row", "first row to delete",
                "Delete rows; references into the band become #REF!."),
    _structural("insert_columns", "col", "insertion column",
                "Insert blank columns, shifting cells and rewriting references."),
    _structural("delete_columns", "col", "first column to delete",
                "Delete columns; references into the band become #REF!."),
    _entry(
        "recalculate",
        "Drain every pending deferred recomputation in the workbook "
        "(a write-serialized barrier: it queues behind earlier "
        "writes, and later reads see fully fresh values).",
        {"sheet": _SHEET}, [],
    ),
]

#: Name -> catalog entry, for dispatch.
CATALOG: dict[str, dict] = {entry["name"]: entry for entry in TOOL_CATALOG}


def _sub_edit(name: str, op: str) -> dict:
    """Top-level ``op`` as a ``batch_edit`` sub-edit: no sheet of its own."""
    entry = CATALOG[op]
    properties = dict(entry["parameters"]["properties"])
    del properties["sheet"]
    return {**entry, "name": name,
            "parameters": {**entry["parameters"], "properties": properties}}


#: The edits one ``batch_edit`` may carry, selected by each sub-edit's
#: ``op`` and checked by the same code as a top-level operation.
BATCH_EDITS: dict[str, dict] = {
    "set_value": _sub_edit("set_value", "set_cell"),
    "set_formula": _sub_edit("set_formula", "set_formula"),
    "clear_cell": _sub_edit("clear_cell", "clear_cell"),
    "clear_range": _entry(
        "clear_range", "Erase a rectangular range.", {"range_ref": _RANGE}, ["range_ref"],
    ),
}


#: Write op (top-level or ``batch_edit`` sub-edit) -> the edit its
#: validated parameters stand for.
_EDIT_BUILDERS = {
    "set_cell": lambda p: SetValue(parse_cell(p["cell"]), p["value"]),
    "set_formula": lambda p: SetFormula(parse_cell(p["cell"]), p["formula"]),
    "clear_cell": lambda p: ClearCell(parse_cell(p["cell"])),
    "clear_range": lambda p: ClearRange(parse_range(p["range_ref"])),
    **{op: lambda p, op=op, key=key: Structural(op, p[key], p["count"])
       for op, (key, _) in STRUCTURAL_OPS.items()},
}
_EDIT_BUILDERS["set_value"] = _EDIT_BUILDERS["set_cell"]

_TYPE_CHECKS = {
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "array": lambda v: isinstance(v, list),
    "object": lambda v: isinstance(v, dict),
}


def _type_ok(value, spec_type) -> bool:
    types = spec_type if isinstance(spec_type, list) else [spec_type]
    return any(_TYPE_CHECKS[t](value) for t in types)


def _check(where: str, schema: dict, params: dict | None) -> dict:
    """``params`` against one parameter schema, with defaults filled in."""
    props = schema["properties"]
    params = dict(params or {})
    for key in params:
        if key not in props:
            raise OpValidationError(f"{where}: unknown parameter {key!r}")
    for key in schema.get("required", ()):
        if key not in params:
            raise OpValidationError(f"{where}: missing required parameter {key!r}")
    for key, value in params.items():
        spec = props[key]
        if "type" in spec and not _type_ok(value, spec["type"]):
            raise OpValidationError(
                f"{where}: parameter {key!r} expects {spec['type']}, "
                f"got {type(value).__name__}"
            )
        if "minimum" in spec and value is not None and value < spec["minimum"]:
            raise OpValidationError(
                f"{where}: parameter {key!r} must be >= {spec['minimum']}, got {value}"
            )
    for key, spec in props.items():
        if key not in params and "default" in spec:
            params[key] = spec["default"]
    return params


def validate_op(name: str, params: dict | None) -> dict:
    """Check one request against the catalog; returns the parameters
    with schema defaults filled in.  Raises :class:`OpValidationError`
    on any mismatch, before anything touches a workbook."""
    entry = CATALOG.get(name)
    if entry is None:
        raise OpValidationError(
            f"unknown operation {name!r}; the catalog has {sorted(CATALOG)}"
        )
    return _check(name, entry["parameters"], params)


def parse_edits(name: str, params: dict) -> list:
    """The edits a request :func:`validate_op` passed stands for — none
    for reads and ``recalculate``, one per sub-edit for ``batch_edit``,
    else one — each checked as the service's journaled engines will
    check it.  Raises :class:`OpValidationError`."""
    if name == "batch_edit":
        return [_batch_edit(i, edit) for i, edit in enumerate(params["edits"])]
    build = _EDIT_BUILDERS.get(name)
    return [] if build is None else [_build(name, build, params)]


def _batch_edit(index: int, edit) -> object:
    where = f"batch_edit: edit {index}"
    if not isinstance(edit, dict):
        raise OpValidationError(f"{where} is not an object")
    params = dict(edit)
    op = params.pop("op", None)
    if not isinstance(op, str) or op not in BATCH_EDITS:
        raise OpValidationError(f"{where} has unknown op {op!r} ({'/'.join(BATCH_EDITS)})")
    params = _check(where, BATCH_EDITS[op]["parameters"], params)
    return _build(where, _EDIT_BUILDERS[op], params)


def _build(where: str, build, params: dict):
    try:
        edit = build(params)
        edit.check(True)
    except ValueError as exc:        # a bad reference, an unparseable formula
        raise OpValidationError(f"{where}: {exc}") from exc
    return edit

"""Minimal xlsx writer on the standard library.

Produces valid SpreadsheetML: content types, relationships, workbook, and
one worksheet part per sheet.  Strings are written as inline strings (no
shared-string table needed), booleans and numbers natively, and formulae
as ``<f>`` elements.

When ``shared_formulas=True`` (the default) the writer detects vertical
runs of formulae that are identical in R1C1 form — exactly what autofill
produces — and emits them as OOXML *shared formula* groups: the anchor
cell carries ``<f t="shared" ref="..." si="N">body</f>`` and the followers
carry an empty ``<f t="shared" si="N"/>``.  This both shrinks files and
exercises the reader's shared-formula reconstruction, the same mechanism
the paper notes Excel uses to store duplicate formulae once.
"""

from __future__ import annotations

import math
import zipfile
from collections import defaultdict
from typing import IO

from ..formula.errors import NUM_ERROR, ExcelError
from ..grid.range import Range
from ..grid.ref import col_to_letters
from ..sheet.sheet import Sheet
from ..sheet.workbook import Workbook
from .shared import CT_NS, DOC_REL_NS, MAIN_NS, REL_NS, xml_escape

__all__ = ["write_xlsx", "write_sheet_xml"]


def write_xlsx(workbook: Workbook | Sheet, target: "str | IO[bytes]",
               shared_formulas: bool = True) -> None:
    """Write a workbook (or a bare sheet) to an ``.xlsx`` file or stream."""
    if isinstance(workbook, Sheet):
        wrapper = Workbook()
        wrapper.attach_sheet(workbook)
        workbook = wrapper
    names = workbook.sheet_names
    if not names:
        raise ValueError("cannot write a workbook with no sheets")

    # zlib's best speed: a third of level 6's deflate time, for parts
    # about a quarter larger.
    with zipfile.ZipFile(target, "w", zipfile.ZIP_DEFLATED, compresslevel=1) as archive:
        archive.writestr("[Content_Types].xml", _content_types(len(names)))
        archive.writestr("_rels/.rels", _root_rels())
        archive.writestr("xl/workbook.xml", _workbook_xml(names))
        archive.writestr("xl/_rels/workbook.xml.rels", _workbook_rels(len(names)))
        archive.writestr("xl/styles.xml", _styles_xml())
        for index, name in enumerate(names, start=1):
            sheet_xml = write_sheet_xml(workbook.sheet(name), shared_formulas)
            archive.writestr(f"xl/worksheets/sheet{index}.xml", sheet_xml)


def _content_types(sheet_count: int) -> str:
    overrides = "".join(
        f'<Override PartName="/xl/worksheets/sheet{i}.xml" ContentType='
        '"application/vnd.openxmlformats-officedocument.spreadsheetml.worksheet+xml"/>'
        for i in range(1, sheet_count + 1)
    )
    return (
        '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
        f'<Types xmlns="{CT_NS}">'
        '<Default Extension="rels" ContentType='
        '"application/vnd.openxmlformats-package.relationships+xml"/>'
        '<Default Extension="xml" ContentType="application/xml"/>'
        '<Override PartName="/xl/workbook.xml" ContentType='
        '"application/vnd.openxmlformats-officedocument.spreadsheetml.sheet.main+xml"/>'
        '<Override PartName="/xl/styles.xml" ContentType='
        '"application/vnd.openxmlformats-officedocument.spreadsheetml.styles+xml"/>'
        f"{overrides}</Types>"
    )


def _root_rels() -> str:
    return (
        '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
        f'<Relationships xmlns="{REL_NS}">'
        '<Relationship Id="rId1" Type='
        f'"{DOC_REL_NS}/officeDocument" Target="xl/workbook.xml"/>'
        "</Relationships>"
    )


def _workbook_xml(names: list[str]) -> str:
    sheets = "".join(
        f'<sheet name="{xml_escape(name)}" sheetId="{i}" r:id="rId{i}"/>'
        for i, name in enumerate(names, start=1)
    )
    return (
        '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
        f'<workbook xmlns="{MAIN_NS}" xmlns:r="{DOC_REL_NS}">'
        f"<sheets>{sheets}</sheets></workbook>"
    )


def _workbook_rels(sheet_count: int) -> str:
    rels = "".join(
        f'<Relationship Id="rId{i}" Type="{DOC_REL_NS}/worksheet" '
        f'Target="worksheets/sheet{i}.xml"/>'
        for i in range(1, sheet_count + 1)
    )
    styles = (
        f'<Relationship Id="rId{sheet_count + 1}" Type="{DOC_REL_NS}/styles" '
        'Target="styles.xml"/>'
    )
    return (
        '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
        f'<Relationships xmlns="{REL_NS}">{rels}{styles}</Relationships>'
    )


def _styles_xml() -> str:
    return (
        '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
        f'<styleSheet xmlns="{MAIN_NS}">'
        '<fonts count="1"><font><sz val="11"/><name val="Calibri"/></font></fonts>'
        '<fills count="1"><fill><patternFill patternType="none"/></fill></fills>'
        '<borders count="1"><border/></borders>'
        '<cellStyleXfs count="1"><xf/></cellStyleXfs>'
        '<cellXfs count="1"><xf/></cellXfs>'
        "</styleSheet>"
    )


def _number_xml(value: float) -> tuple[str, str]:
    """(cell type attribute, ``<v>`` element) of a number.  A non-finite
    one — arithmetic overflow evaluates to ``inf`` / ``nan`` here — has no
    SpreadsheetML spelling and is written as the ``#NUM!`` it stands for."""
    if -1e15 < value < 1e15:
        whole = int(value)
        return "", f"<v>{whole if whole == value else repr(value)}</v>"
    if math.isfinite(value):
        return "", f"<v>{value!r}</v>"
    return ' t="e"', f"<v>{NUM_ERROR.code}</v>"


def _plan_shared_groups(sheet: Sheet) -> list[Range]:
    """The shared-formula groups, in ``si`` order: every autofill run of
    at least two cells (:meth:`Sheet.formula_runs` — members of a run hold
    one interned template, which is what "identical in R1C1" means)."""
    return [
        Range(col, first, col, last)
        for _, col, first, last in sheet.formula_runs()
        if last > first
    ]


def _formula_columns(sheet: Sheet, shared_formulas: bool) -> dict[int, dict[int, str]]:
    """Every formula cell's ``<f>`` element as ``{col: {row: xml}}``,
    columns ascending, read off the sheet's runs: text is rendered for
    group anchors and ungrouped cells only, and every follower of a group
    is one and the same string."""
    plan = _plan_shared_groups(sheet) if shared_formulas else ()
    si_of = {group.head: si for si, group in enumerate(plan)}
    formula_at = sheet.formula_at
    columns: dict[int, dict[int, str]] = {}
    for col, runs in sheet.run_index().items():
        elements = columns[col] = {}
        for first, last, _ in runs:
            si = si_of.get((col, first))
            if si is None:
                for row in range(first, last + 1):
                    elements[row] = f"<f>{xml_escape(formula_at((col, row)).formula_text)}</f>"
                continue
            text = xml_escape(formula_at((col, first)).formula_text)
            elements[first] = f'<f t="shared" ref="{plan[si].to_a1()}" si="{si}">{text}</f>'
            elements.update(dict.fromkeys(range(first + 1, last + 1), f'<f t="shared" si="{si}"/>'))
    return columns


def write_sheet_xml(sheet: Sheet, shared_formulas: bool = True) -> str:
    """Serialise one worksheet part."""
    # One cell list per row.  Columns are walked in ascending order, so
    # every row receives its cells in column order.
    rows: defaultdict[int, list[str]] = defaultdict(list)
    formulas = _formula_columns(sheet, shared_formulas)

    def unevaluated(col: int, elements: dict[int, str]) -> None:
        # formulas that hold no cached value (never evaluated): no <v>
        if elements:
            letters = col_to_letters(col)
            for row, f_xml in elements.items():
                rows[row].append(f'<c r="{letters}{row}">{f_xml}</c>')

    at_col = letters = None
    elements: dict[int, str] = {}
    for col, row, value in sheet.iter_values():
        if col != at_col:
            unevaluated(at_col, elements)
            for before in [c for c in formulas if c < col]:
                unevaluated(before, formulas.pop(before))
            at_col, letters, elements = col, col_to_letters(col), formulas.pop(col, {})
        formula = elements.pop(row, "") if elements else ""
        if type(value) is float:
            attr, cached = _number_xml(value)
        elif formula or isinstance(value, (bool, int, ExcelError)):
            attr, cached = _cached_value_xml(value)
        elif isinstance(value, str):
            attr, cached = ' t="inlineStr"', f"<is><t>{xml_escape(value)}</t></is>"
        else:
            continue
        rows[row].append(f'<c r="{letters}{row}"{attr}>{formula}{cached}</c>')
    unevaluated(at_col, elements)
    for col, rest in formulas.items():
        unevaluated(col, rest)

    row_xml = [f'<row r="{row}">{"".join(rows[row])}</row>' for row in sorted(rows)]
    dimension = sheet.used_range()
    dim_attr = f'<dimension ref="{dimension.to_a1()}"/>' if dimension else ""
    return (
        '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
        f'<worksheet xmlns="{MAIN_NS}">{dim_attr}'
        f"<sheetData>{''.join(row_xml)}</sheetData></worksheet>"
    )


def _cached_value_xml(value) -> tuple[str, str]:
    """(cell type attribute, ``<v>`` element) for a formula cell's cached
    value — and for a pure boolean, number or error, which spell the same."""
    if value is None:
        return "", ""
    if isinstance(value, bool):
        return ' t="b"', f"<v>{1 if value else 0}</v>"
    if isinstance(value, (int, float)):
        return _number_xml(float(value))
    if isinstance(value, ExcelError):
        return ' t="e"', f"<v>{xml_escape(value.code)}</v>"
    return ' t="str"', f"<v>{xml_escape(str(value))}</v>"

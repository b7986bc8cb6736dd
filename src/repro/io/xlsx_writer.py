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

import zipfile
from typing import IO

from ..formula.errors import ExcelError
from ..grid.range import Range
from ..grid.ref import format_cell
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

    with zipfile.ZipFile(target, "w", zipfile.ZIP_DEFLATED) as archive:
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


def _plan_shared_groups(sheet: Sheet) -> list[Range]:
    """The shared-formula groups, in ``si`` order: every autofill run of
    at least two cells (:meth:`Sheet.formula_runs` — members of a run hold
    one interned template, which is what "identical in R1C1" means)."""
    return [
        Range(col, first, col, last)
        for _, col, first, last in sheet.formula_runs()
        if last > first
    ]


def _format_number(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def write_sheet_xml(sheet: Sheet, shared_formulas: bool = True) -> str:
    """Serialise one worksheet part."""
    # Formula elements first (text is rendered for anchors and ungrouped
    # cells only); the value pass below pairs each with its cached value.
    formulas: dict[tuple[int, int], str] = {}
    anchors: dict[tuple[int, int], str] = {}    # group anchor -> its opening tag
    if shared_formulas:
        for si, group in enumerate(_plan_shared_groups(sheet)):
            anchors[group.head] = f'<f t="shared" ref="{group.to_a1()}" si="{si}">'
            follower = f'<f t="shared" si="{si}"/>'
            for row in range(group.r1 + 1, group.r2 + 1):
                formulas[(group.c1, row)] = follower
    for pos, cell in sheet.formula_cells():
        if pos not in formulas:
            formulas[pos] = f"{anchors.get(pos, '<f>')}{xml_escape(cell.formula_text)}</f>"

    rows: dict[int, list[tuple[int, str]]] = {}
    for col, row, value in sheet.iter_values():
        ref = format_cell(col, row)
        formula_xml = formulas.pop((col, row), None) if formulas else None
        if formula_xml is not None:
            cached = _cached_value_xml(value)
            body = f'<c r="{ref}"{cached[0]}>{formula_xml}{cached[1]}</c>'
        elif isinstance(value, bool):
            body = f'<c r="{ref}" t="b"><v>{1 if value else 0}</v></c>'
        elif isinstance(value, (int, float)):
            body = f'<c r="{ref}"><v>{_format_number(float(value))}</v></c>'
        elif isinstance(value, ExcelError):
            body = f'<c r="{ref}" t="e"><v>{xml_escape(value.code)}</v></c>'
        elif isinstance(value, str):
            body = f'<c r="{ref}" t="inlineStr"><is><t>{xml_escape(value)}</t></is></c>'
        else:
            continue
        rows.setdefault(row, []).append((col, body))
    for (col, row), formula_xml in formulas.items():  # never evaluated: no <v>
        rows.setdefault(row, []).append((col, f'<c r="{format_cell(col, row)}">{formula_xml}</c>'))

    row_xml: list[str] = []
    for row in sorted(rows):
        cells = "".join(body for _, body in sorted(rows[row]))
        row_xml.append(f'<row r="{row}">{cells}</row>')
    dimension = sheet.used_range()
    dim_attr = f'<dimension ref="{dimension.to_a1()}"/>' if dimension else ""
    return (
        '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
        f'<worksheet xmlns="{MAIN_NS}">{dim_attr}'
        f"<sheetData>{''.join(row_xml)}</sheetData></worksheet>"
    )


def _cached_value_xml(value) -> tuple[str, str]:
    """(cell type attribute, cached <v> element) for a formula cell."""
    if value is None:
        return "", ""
    if isinstance(value, bool):
        return ' t="b"', f"<v>{1 if value else 0}</v>"
    if isinstance(value, (int, float)):
        return "", f"<v>{_format_number(float(value))}</v>"
    if isinstance(value, ExcelError):
        return ' t="e"', f"<v>{xml_escape(value.code)}</v>"
    return ' t="str"', f"<v>{xml_escape(str(value))}</v>"

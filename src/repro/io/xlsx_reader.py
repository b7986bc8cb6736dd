"""Minimal xlsx reader on the standard library.

Parses the SpreadsheetML parts the formula-graph pipeline needs: sheet
names and order from ``xl/workbook.xml`` (resolving relationship targets),
the shared-string table, and per-sheet cell values and formulae.

Shared formulae are reconstructed the way a spreadsheet engine stores
them: the anchor cell's formula is parsed once and every follower of the
group becomes a member of the anchor's template
(:mod:`repro.formula.template`) — relative references move with the
member, ``$``-fixed ones stay — so a shared-formula file opens as one
template per group and round-trips to the same dependency set as a fully
materialised one.

Worksheet parts are *streamed*: cells are applied as the parser closes
them and each finished ``<row>`` is cleared, so opening a file never
holds the part's bytes or its element tree, only the sheet being built.
"""

from __future__ import annotations

import posixpath
import zipfile
from typing import IO
from xml.etree import ElementTree

from ..formula.errors import ExcelError
from ..formula.template import FormulaTemplate
from ..grid.ref import parse_cell
from ..sheet.sheet import Sheet
from ..sheet.workbook import Workbook
from .shared import strip_ns, xml_unescape

__all__ = ["read_xlsx", "XlsxFormatError"]


class XlsxFormatError(ValueError):
    """Raised for files that are not parseable xlsx archives."""


def read_xlsx(source: "str | IO[bytes]") -> Workbook:
    """Read an ``.xlsx`` file (path or binary stream) into a Workbook."""
    try:
        archive = zipfile.ZipFile(source)
    except zipfile.BadZipFile as exc:
        raise XlsxFormatError(f"not a zip archive: {exc}") from exc
    with archive:
        sheet_targets = _sheet_targets(archive)
        shared_strings = _shared_strings(archive)
        workbook = Workbook()
        for name, target in sheet_targets:
            sheet = workbook.add_sheet(name)
            _read_sheet(archive, target, sheet, shared_strings)
        return workbook


def _read_xml(archive: zipfile.ZipFile, path: str) -> ElementTree.Element | None:
    try:
        data = archive.read(path)
    except KeyError:
        return None
    try:
        return ElementTree.fromstring(data)
    except ElementTree.ParseError as exc:
        raise XlsxFormatError(f"malformed XML in {path}: {exc}") from exc


def _sheet_targets(archive: zipfile.ZipFile) -> list[tuple[str, str]]:
    workbook_root = _read_xml(archive, "xl/workbook.xml")
    if workbook_root is None:
        raise XlsxFormatError("missing xl/workbook.xml")
    rels_root = _read_xml(archive, "xl/_rels/workbook.xml.rels")
    rel_targets: dict[str, str] = {}
    if rels_root is not None:
        for rel in rels_root:
            rel_targets[rel.get("Id", "")] = rel.get("Target", "")

    out: list[tuple[str, str]] = []
    fallback_index = 0
    for element in workbook_root.iter():
        if strip_ns(element.tag) != "sheet":
            continue
        name = xml_unescape(element.get("name", f"Sheet{len(out) + 1}"))
        rel_id = None
        for key, value in element.attrib.items():
            if strip_ns(key) == "id":
                rel_id = value
        target = rel_targets.get(rel_id or "", "")
        if not target:
            fallback_index += 1
            target = f"worksheets/sheet{fallback_index}.xml"
        if not target.startswith("/"):
            target = posixpath.normpath(posixpath.join("xl", target))
        else:
            target = target.lstrip("/")
        out.append((name, target))
    if not out:
        raise XlsxFormatError("workbook declares no sheets")
    return out


def _shared_strings(archive: zipfile.ZipFile) -> list[str]:
    root = _read_xml(archive, "xl/sharedStrings.xml")
    if root is None:
        return []
    strings: list[str] = []
    for si in root:
        if strip_ns(si.tag) != "si":
            continue
        strings.append(_text_of(si))
    return strings


def _text_of(element: ElementTree.Element) -> str:
    """Concatenate all <t> descendants (handles rich-text runs)."""
    parts: list[str] = []
    for node in element.iter():
        if strip_ns(node.tag) == "t" and node.text:
            parts.append(node.text)
    return xml_unescape("".join(parts))


def _read_sheet(
    archive: zipfile.ZipFile,
    target: str,
    sheet: Sheet,
    shared_strings: list[str],
) -> None:
    # si -> the anchor's template; anchors appear before their followers
    # in document order.
    shared_anchors: dict[str, FormulaTemplate] = {}
    try:
        part = archive.open(target)
    except KeyError:
        raise XlsxFormatError(f"missing worksheet part {target}") from None
    try:
        with part:
            for _, element in ElementTree.iterparse(part):
                tag = strip_ns(element.tag)
                if tag == "c":
                    _read_cell(sheet, element, shared_anchors, shared_strings)
                elif tag == "row":
                    element.clear()
    except ElementTree.ParseError as exc:
        raise XlsxFormatError(f"malformed XML in {target}: {exc}") from exc


def _read_cell(
    sheet: Sheet,
    element: ElementTree.Element,
    shared_anchors: dict[str, FormulaTemplate],
    shared_strings: list[str],
) -> None:
    ref = element.get("r")
    if not ref:
        return
    col, row = parse_cell(ref)
    cell_type = element.get("t", "n")
    formula_el = None
    value_el = None
    inline_el = None
    for child in element:
        tag = strip_ns(child.tag)
        if tag == "f":
            formula_el = child
        elif tag == "v":
            value_el = child
        elif tag == "is":
            inline_el = child

    # The cached value lands first; the formula attaches over it.
    sheet.set_value((col, row), _parse_value(cell_type, value_el, inline_el, shared_strings))
    if formula_el is not None:
        _apply_formula(sheet, col, row, formula_el, shared_anchors)


def _apply_formula(
    sheet: Sheet,
    col: int,
    row: int,
    formula_el: ElementTree.Element,
    shared_anchors: dict[str, FormulaTemplate],
) -> None:
    """Lay the cell's formula over the value already there.  A shared
    group's follower joins the anchor's template: down a column it
    extends the run above it, nothing is allocated per cell.  A dangling
    follower, an array formula (out of scope) and an empty ``<f>`` keep
    the stored value only."""
    text = xml_unescape(formula_el.text or "")
    f_type = formula_el.get("t", "normal")
    if f_type == "shared" and not text:
        anchor = shared_anchors.get(formula_el.get("si", ""))
        if anchor is None:
            return
        if anchor.admits(col, row):
            sheet.attach_formula_run(col, row, row, anchor)
        else:       # a ``#REF!``-bearing formula of its own
            value = sheet.get_value((col, row))
            sheet.set_formula_template((col, row), anchor)
            sheet.formula_at((col, row)).value = value
    elif f_type != "array" and text:
        sheet.attach_formula_run(col, row, row, None, text[1:] if text.startswith("=") else text)
        if f_type == "shared":
            shared_anchors[formula_el.get("si", "")] = sheet.formula_at((col, row)).template


def _parse_value(
    cell_type: str,
    value_el: ElementTree.Element | None,
    inline_el: ElementTree.Element | None,
    shared_strings: list[str],
):
    if cell_type == "inlineStr":
        return _text_of(inline_el) if inline_el is not None else None
    if value_el is None or value_el.text is None:
        return None
    raw = value_el.text
    if cell_type == "s":
        try:
            return shared_strings[int(raw)]
        except (ValueError, IndexError) as exc:
            raise XlsxFormatError(f"bad shared-string index {raw!r}") from exc
    if cell_type == "b":
        return raw.strip() in ("1", "true", "TRUE")
    if cell_type == "e":
        return ExcelError(raw.strip())
    if cell_type == "str":
        return xml_unescape(raw)
    try:
        return float(raw)
    except ValueError:
        return raw


def read_xlsx_dependencies(source: "str | IO[bytes]"):
    """Convenience: read a file and return (workbook, per-sheet deps)."""
    workbook = read_xlsx(source)
    deps = {
        sheet.name: list(sheet.iter_dependencies())
        for sheet in workbook.sheets()
    }
    return workbook, deps

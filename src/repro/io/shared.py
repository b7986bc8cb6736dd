"""Shared constants and helpers for the xlsx reader/writer.

An ``.xlsx`` file is a ZIP of XML parts (ECMA-376 / OOXML SpreadsheetML).
The paper's prototype used Apache POI to parse them; with no third-party
parser available we implement the subset needed for formula graphs on the
standard library: cell values, formula strings, and shared-formula groups.
"""

from __future__ import annotations

import re

__all__ = [
    "MAIN_NS",
    "REL_NS",
    "DOC_REL_NS",
    "CT_NS",
    "strip_ns",
    "xml_escape",
    "xml_unescape",
]

MAIN_NS = "http://schemas.openxmlformats.org/spreadsheetml/2006/main"
REL_NS = "http://schemas.openxmlformats.org/package/2006/relationships"
DOC_REL_NS = "http://schemas.openxmlformats.org/officeDocument/2006/relationships"
CT_NS = "http://schemas.openxmlformats.org/package/2006/content-types"


def strip_ns(tag: str) -> str:
    """``{namespace}local`` -> ``local``."""
    if tag.startswith("{"):
        return tag.split("}", 1)[1]
    return tag


#: What SpreadsheetML spells ``_xHHHH_``: characters XML 1.0 cannot carry
#: (and ``\r``, which a parser would turn into ``\n``), plus the
#: underscore of a literal that looks like such an escape.
_ESCAPED = re.compile(
    "[\x00-\x08\x0b\x0c\x0e-\x1f\r\ud800-\udfff\ufffe\uffff]|_(?=x[0-9A-Fa-f]{4}_)"
)
_ESCAPE = re.compile("_x([0-9A-Fa-f]{4})_")


def xml_escape(text: str) -> str:
    """``text`` as XML character data or an attribute value."""
    text = (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )
    return _ESCAPED.sub(lambda match: f"_x{ord(match.group()):04X}_", text)


def xml_unescape(text: str) -> str:
    """Undo :func:`xml_escape`'s ``_xHHHH_`` (the parser undid the rest)."""
    if "_x" not in text:
        return text
    return _ESCAPE.sub(lambda match: chr(int(match.group(1), 16)), text)

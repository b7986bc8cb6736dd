"""The object store is the second implementation of one store surface.

``Sheet`` calls its store without asking which kind it holds, so the
object store has to answer every call the columnar store answers; and
the sheet suites (``test_sheet.py``, ``test_workbook.py``,
``test_structural.py``) run here once more with the ``store`` fixture
making every ``Sheet()`` an object-store sheet — their own modules run
them on the default, columnar one.
"""

import inspect
import re

import pytest

from repro.sheet import sheet as sheet_module
from repro.sheet import structural
from repro.sheet.columnar import ColumnarStore
from repro.sheet.object_store import ObjectStore

from test_sheet import TestCellAccess, TestDependencies, TestResolver  # noqa: F401
from test_structural import (  # noqa: F401
    TestColumns,
    TestCrossSheetReferences,
    TestEditReports,
    TestSheetDeleteRows,
    TestSheetInsertRows,
    TestWorkbookEdits,
)
from test_workbook import TestCrossSheetEvaluation, TestWorkbook  # noqa: F401

pytestmark = [
    pytest.mark.usefixtures("store"),
    pytest.mark.parametrize("store", ["object"], indirect=True),
]


def test_every_store_call_of_the_sheet_is_answered_by_both_stores():
    """What ``Sheet`` (and the structural pass that works on its store)
    calls on ``sheet._cells``, read off their source."""
    source = inspect.getsource(sheet_module) + inspect.getsource(structural)
    called = set(re.findall(r"(?:\._cells|\bstore)\.(\w+)", source))
    assert {"read_value", "write_pure", "range_numbers", "structural_edit"} <= called
    for name in called | {"__len__", "__iter__", "items", "epoch", "formula_version"}:
        assert hasattr(ColumnarStore, name), name
        assert hasattr(ObjectStore, name), name


def test_the_default_sheet_is_an_object_store_sheet_here(store):
    assert sheet_module.Sheet().store_kind == store == "object"

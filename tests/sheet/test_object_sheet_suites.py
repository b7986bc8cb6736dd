"""The sheet suites once more, over the seed's per-cell store.

:class:`~repro.baselines.object_store.ObjectSheet` is the oracle the
columnar store is checked against, so the store-layer behaviour it is
trusted for — cell access, dependencies, the resolver, autofill,
workbooks, row and column edits and the structural prescreen — must
hold on it as it holds on the columnar store.  The ``store`` fixture
makes every ``Sheet()`` (and every ``Workbook.add_sheet``) in the suites
below an object-store sheet; their own modules run them on the columnar
one.
"""

import pytest

from repro.baselines.object_store import ObjectStore
from repro.sheet.sheet import Sheet

from test_autofill import TestAutofill, TestFillHelpers  # noqa: F401
from test_sheet import TestCellAccess, TestDependencies, TestResolver  # noqa: F401
from test_structural import (  # noqa: F401
    TestColumns,
    TestCrossedRanges,
    TestCrossSheetReferences,
    TestEditReports,
    TestSheetDeleteRows,
    TestSheetInsertRows,
    TestWorkbookEdits,
)
from test_structural_prescreen import (  # noqa: F401
    test_cross_sheet_prescreen_sees_escaped_sheet_names,
    test_fast_path_engages_for_template_members,
    test_fast_path_really_engages,
    test_prescreened_equals_full_ast_path,
    test_prescreened_equals_full_ast_path_generated,
)
from test_workbook import TestCrossSheetEvaluation, TestWorkbook  # noqa: F401

pytestmark = [
    pytest.mark.usefixtures("store"),
    pytest.mark.parametrize("store", ["object"], indirect=True),
]


@pytest.fixture(scope="module")
def store(request):
    """Every ``Sheet()`` built in this module holds an ``ObjectStore``
    (module-scoped, so that property tests share it across examples)."""
    assert request.param == "object"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Sheet, "_store_class", ObjectStore)
        yield request.param


def test_the_default_sheet_is_an_object_store_sheet_here(store):
    assert type(Sheet()._cells) is ObjectStore and store == "object"

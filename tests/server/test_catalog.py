"""The typed operation catalog and its validation choke point."""

import json

import pytest

from repro.server.catalog import BATCH_EDITS, CATALOG, TOOL_CATALOG, OpValidationError, validate_op


class TestCatalogShape:
    def test_every_entry_is_fully_typed(self):
        for entry in TOOL_CATALOG:
            assert isinstance(entry["name"], str) and entry["name"]
            assert isinstance(entry["description"], str) and entry["description"]
            assert isinstance(entry["read_only"], bool)
            schema = entry["parameters"]
            assert schema["type"] == "object"
            assert isinstance(schema["properties"], dict)
            assert set(schema["required"]) <= set(schema["properties"])
        json.dumps([TOOL_CATALOG, BATCH_EDITS])         # plain data

    def test_names_are_unique_and_indexed(self):
        names = [entry["name"] for entry in TOOL_CATALOG]
        assert len(names) == len(set(names))
        assert set(CATALOG) == set(names)

    def test_expected_surface(self):
        expected = {
            "get_cell", "get_range", "summarize_sheet",
            "set_cell", "set_formula", "clear_cell", "batch_edit",
            "insert_rows", "delete_rows", "insert_columns", "delete_columns",
            "recalculate",
        }
        assert expected <= set(CATALOG)

    def test_read_write_split(self):
        reads = {n for n, e in CATALOG.items() if e["read_only"]}
        assert reads == {"get_cell", "get_range", "summarize_sheet"}


class TestValidateOp:
    def test_unknown_operation(self):
        with pytest.raises(OpValidationError, match="unknown operation"):
            validate_op("explode", {})

    def test_missing_required_parameter(self):
        with pytest.raises(OpValidationError, match="missing required"):
            validate_op("set_cell", {"value": 1})

    def test_unknown_parameter_rejected(self):
        with pytest.raises(OpValidationError, match="unknown parameter"):
            validate_op("get_cell", {"cell": "A1", "font": "bold"})

    def test_type_mismatch(self):
        with pytest.raises(OpValidationError, match="expects"):
            validate_op("get_cell", {"cell": 7})
        with pytest.raises(OpValidationError, match="expects"):
            validate_op("insert_rows", {"row": "three"})
        with pytest.raises(OpValidationError, match="expects"):
            validate_op("batch_edit", {"edits": "not-a-list"})

    def test_boolean_is_not_an_integer(self):
        with pytest.raises(OpValidationError, match="expects"):
            validate_op("insert_rows", {"row": True})

    def test_scalar_union_accepts_null(self):
        params = validate_op("set_cell", {"cell": "A1", "value": None})
        assert params["value"] is None

    def test_minimum_enforced(self):
        with pytest.raises(OpValidationError, match=">= 1"):
            validate_op("insert_rows", {"row": 0})
        with pytest.raises(OpValidationError, match=">= 1"):
            validate_op("delete_columns", {"col": 2, "count": 0})

    def test_defaults_applied(self):
        params = validate_op("insert_rows", {"row": 5})
        assert params["count"] == 1

    def test_none_params_means_empty(self):
        params = validate_op("summarize_sheet", None)
        assert params == {}

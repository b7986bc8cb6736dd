"""The multi-tenant workbook service: dispatch, serialization, reads."""

import asyncio

import pytest

from repro.server import OpValidationError, WorkbookService


def run(coro):
    return asyncio.run(coro)


class TestLifecycle:
    def test_create_and_point_ops(self, tmp_path):
        async def scenario():
            async with WorkbookService(str(tmp_path), fsync=False) as svc:
                created = await svc.create_workbook("wb")
                assert created == {"workbook": "wb", "sheets": ["Sheet1"]}
                await svc.execute("wb", "set_cell", {"cell": "A1", "value": 6})
                ticket = await svc.execute(
                    "wb", "set_formula", {"cell": "B1", "formula": "=A1*7"}
                )
                assert ticket["dirty_count"] == 1
                assert ticket["control_return_seconds"] >= 0
                await svc.execute("wb", "recalculate")
                view = await svc.execute("wb", "get_cell", {"cell": "B1"})
                assert view["value"] == 42.0
                assert view["dirty"] is False

        run(scenario())

    def test_duplicate_create_rejected(self, tmp_path):
        async def scenario():
            async with WorkbookService(str(tmp_path), fsync=False) as svc:
                await svc.create_workbook("wb")
                with pytest.raises(OpValidationError, match="already exists"):
                    await svc.create_workbook("wb")

        run(scenario())

    def test_unknown_workbook_and_sheet(self, tmp_path):
        async def scenario():
            async with WorkbookService(str(tmp_path), fsync=False) as svc:
                with pytest.raises(OpValidationError, match="unknown workbook"):
                    await svc.execute("ghost", "get_cell", {"cell": "A1"})
                await svc.create_workbook("wb")
                with pytest.raises(OpValidationError, match="unknown sheet"):
                    await svc.execute(
                        "wb", "get_cell", {"cell": "A1", "sheet": "Nope"}
                    )

        run(scenario())

    def test_invalid_workbook_id(self, tmp_path):
        async def scenario():
            async with WorkbookService(str(tmp_path), fsync=False) as svc:
                with pytest.raises(OpValidationError, match="invalid workbook id"):
                    await svc.create_workbook("../escape")

        run(scenario())

    def test_closed_service_refuses_ops(self, tmp_path):
        async def scenario():
            svc = WorkbookService(str(tmp_path), fsync=False)
            await svc.create_workbook("wb")
            await svc.close()
            with pytest.raises(RuntimeError, match="closed"):
                await svc.execute("wb", "get_cell", {"cell": "A1"})

        run(scenario())


class TestDeferredReads:
    def test_read_reports_staleness_before_pump(self, tmp_path):
        async def scenario():
            async with WorkbookService(str(tmp_path), fsync=False) as svc:
                await svc.create_workbook("wb")
                await svc.execute("wb", "set_cell", {"cell": "A1", "value": 1})
                await svc.execute(
                    "wb", "set_formula", {"cell": "B1", "formula": "=A1+1"}
                )
                await svc.execute("wb", "recalculate")
                # The write returns at the control-return point; reading
                # immediately (same loop tick) sees the stale value flagged.
                ticket = await svc.execute("wb", "set_cell", {"cell": "A1", "value": 50})
                assert ticket["dirty_count"] == 1
                view = await svc.execute("wb", "get_cell", {"cell": "B1"})
                if view["dirty"]:
                    assert view["value"] == 2.0  # stale but honestly flagged
                await svc.execute("wb", "recalculate")
                view = await svc.execute("wb", "get_cell", {"cell": "B1"})
                assert (view["value"], view["dirty"]) == (51.0, False)

        run(scenario())

    def test_get_range_counts_dirty_cells(self, tmp_path):
        async def scenario():
            async with WorkbookService(str(tmp_path), fsync=False) as svc:
                await svc.create_workbook("wb")
                edits = [{"op": "set_value", "cell": f"A{r}", "value": r}
                         for r in range(1, 6)]
                edits += [{"op": "set_formula", "cell": f"B{r}", "formula": f"=A{r}*2"}
                          for r in range(1, 6)]
                await svc.execute("wb", "batch_edit", {"edits": edits})
                await svc.execute("wb", "recalculate")
                grid = await svc.execute("wb", "get_range", {"range_ref": "A1:B5"})
                assert grid["dirty_cells"] == 0
                assert grid["values"] == [[float(r), float(r * 2)] for r in range(1, 6)]

        run(scenario())

    def test_get_range_size_cap(self, tmp_path):
        async def scenario():
            async with WorkbookService(str(tmp_path), fsync=False) as svc:
                await svc.create_workbook("wb")
                with pytest.raises(OpValidationError, match="limit"):
                    await svc.execute("wb", "get_range", {"range_ref": "A1:ZZ9999"})

        run(scenario())

    def test_summarize_sheet(self, tmp_path):
        async def scenario():
            async with WorkbookService(str(tmp_path), fsync=False) as svc:
                await svc.create_workbook("wb")
                await svc.execute("wb", "set_cell", {"cell": "C7", "value": 3})
                await svc.execute(
                    "wb", "set_formula", {"cell": "D2", "formula": "=C7"}
                )
                summary = await svc.execute("wb", "summarize_sheet")
                assert summary["cells"] == 2
                assert summary["formulas"] == 1
                assert summary["extent"] == "A1:D7"
                assert summary["sheets"] == ["Sheet1"]

        run(scenario())


class TestWriteSerialization:
    def test_same_workbook_writes_apply_in_submission_order(self, tmp_path):
        async def scenario():
            async with WorkbookService(str(tmp_path), fsync=False) as svc:
                await svc.create_workbook("wb")
                await asyncio.gather(*[
                    svc.execute("wb", "set_cell", {"cell": "A1", "value": i})
                    for i in range(40)
                ])
                view = await svc.execute("wb", "get_cell", {"cell": "A1"})
                assert view["value"] == 39

        run(scenario())

    def test_queue_depth_observed_under_burst(self, tmp_path):
        async def scenario():
            async with WorkbookService(str(tmp_path), fsync=False) as svc:
                await svc.create_workbook("wb")
                await asyncio.gather(*[
                    svc.execute("wb", "set_cell", {"cell": "A1", "value": i})
                    for i in range(20)
                ])
                assert svc.metrics.max_queue_depth > 1

        run(scenario())

    def test_reads_never_block_on_other_workbooks_writes(self, tmp_path):
        async def scenario():
            async with WorkbookService(str(tmp_path), fsync=False) as svc:
                await svc.create_workbook("busy")
                await svc.create_workbook("calm")
                await svc.execute("calm", "set_cell", {"cell": "A1", "value": 7})
                await svc.execute("calm", "recalculate")
                writes = [
                    asyncio.ensure_future(
                        svc.execute("busy", "set_cell", {"cell": "A1", "value": i})
                    )
                    for i in range(200)
                ]
                await asyncio.sleep(0)  # let the writes enqueue
                # With 200 writes queued on "busy", a read of "calm"
                # returns before that queue drains.
                view = await svc.execute("calm", "get_cell", {"cell": "A1"})
                assert view["value"] == 7
                assert any(not f.done() for f in writes)
                await asyncio.gather(*writes)

        run(scenario())

    def test_write_error_propagates_without_killing_the_writer(self, tmp_path):
        async def scenario():
            async with WorkbookService(str(tmp_path), fsync=False) as svc:
                await svc.create_workbook("wb")
                with pytest.raises(OpValidationError):
                    await svc.execute("wb", "set_cell", {"cell": "not-a-ref", "value": 1})
                await svc.execute("wb", "set_cell", {"cell": "A1", "value": 5})
                view = await svc.execute("wb", "get_cell", {"cell": "A1"})
                assert view["value"] == 5
                assert svc.metrics.op("set_cell").errors == 1

        run(scenario())


class TestFormulaValidation:
    def test_bad_formula_is_a_validation_error_and_lands_nothing(self, tmp_path):
        """The engine parses before it mutates; the service only maps
        the error type.  Nothing lands, nothing is journaled."""

        async def scenario():
            async with WorkbookService(str(tmp_path), fsync=False) as svc:
                await svc.create_workbook("wb")
                await svc.execute("wb", "set_cell", {"cell": "A1", "value": 2})
                await svc.execute("wb", "set_formula", {"cell": "B1", "formula": "=A1*3"})
                await svc.execute("wb", "recalculate")
                journaled = svc.metrics.journal_records
                with pytest.raises(OpValidationError):
                    await svc.execute("wb", "set_formula", {"cell": "B1", "formula": "=A1+"})
                with pytest.raises(OpValidationError, match="batch_edit"):
                    await svc.execute("wb", "batch_edit", {"edits": [
                        {"op": "set_value", "cell": "A1", "value": 50},
                        {"op": "set_formula", "cell": "B1", "formula": "=A1+"},
                    ]})
                assert svc.metrics.journal_records == journaled
                grid = await svc.execute("wb", "get_range", {"range_ref": "A1:B1"})
                assert (grid["values"], grid["dirty_cells"]) == ([[2, 6.0]], 0)
                # The writer and the engine both survived.
                await svc.execute("wb", "set_cell", {"cell": "A1", "value": 3})
                await svc.execute("wb", "recalculate")
                view = await svc.execute("wb", "get_cell", {"cell": "B1"})
                assert view["value"] == 9.0

        run(scenario())


class TestBatchAndStructural:
    def test_batch_edit_is_one_journal_record(self, tmp_path):
        async def scenario():
            async with WorkbookService(str(tmp_path), fsync=False) as svc:
                await svc.create_workbook("wb")
                before = svc.metrics.journal_records
                result = await svc.execute("wb", "batch_edit", {"edits": [
                    {"op": "set_value", "cell": "A1", "value": 2},
                    {"op": "set_value", "cell": "A2", "value": 3},
                    {"op": "set_formula", "cell": "B1", "formula": "=SUM(A1:A2)"},
                ]})
                assert result["edits"] == 3
                assert svc.metrics.journal_records == before + 1
                await svc.execute("wb", "recalculate")
                view = await svc.execute("wb", "get_cell", {"cell": "B1"})
                assert view["value"] == 5.0

        run(scenario())

    def test_batch_edit_validates_before_applying(self, tmp_path):
        async def scenario():
            async with WorkbookService(str(tmp_path), fsync=False) as svc:
                await svc.create_workbook("wb")
                with pytest.raises(OpValidationError, match="unknown op"):
                    await svc.execute("wb", "batch_edit", {"edits": [
                        {"op": "set_value", "cell": "A1", "value": 1},
                        {"op": "paint", "cell": "A2"},
                    ]})
                # Nothing from the failed batch landed.
                view = await svc.execute("wb", "get_cell", {"cell": "A1"})
                assert view["value"] is None

        run(scenario())

    @pytest.mark.parametrize("edit", [
        {"op": "set_value", "cell": "A1"},
        {"op": "set_value", "cell": "A1", "value": [1, 2]},
        {"op": "set_value", "cell": "A1", "value": 1, "formula": "=2"},
    ], ids=["missing_value", "list_value", "unknown_key"])
    def test_batch_sub_edits_are_validated_like_top_level_ops(self, tmp_path, edit):
        async def scenario():
            async with WorkbookService(str(tmp_path), fsync=False) as svc:
                await svc.create_workbook("wb")
                await svc.execute("wb", "set_cell", {"cell": "A1", "value": 5})
                journaled = svc.metrics.journal_records
                with pytest.raises(OpValidationError, match="batch_edit: edit 0"):
                    await svc.execute("wb", "batch_edit", {"edits": [edit]})
                assert svc.metrics.journal_records == journaled
                assert (await svc.execute("wb", "get_cell", {"cell": "A1"}))["value"] == 5

        run(scenario())

    def test_structural_edit_shifts_and_rewrites(self, tmp_path):
        async def scenario():
            async with WorkbookService(str(tmp_path), fsync=False) as svc:
                await svc.create_workbook("wb")
                await svc.execute("wb", "batch_edit", {"edits": [
                    {"op": "set_value", "cell": "A1", "value": 1},
                    {"op": "set_value", "cell": "A2", "value": 2},
                    {"op": "set_formula", "cell": "B1", "formula": "=SUM(A1:A2)"},
                ]})
                await svc.execute("wb", "recalculate")
                result = await svc.execute("wb", "insert_rows", {"row": 2, "count": 2})
                assert result["rewritten_formulas"] >= 1  # =SUM(A1:A2) stretched
                await svc.execute("wb", "recalculate")
                # The straddled range stretched: =SUM(A1:A4), still 3.
                view = await svc.execute("wb", "get_cell", {"cell": "B1"})
                assert view["value"] == 3.0
                moved = await svc.execute("wb", "get_cell", {"cell": "A4"})
                assert moved["value"] == 2

        run(scenario())

    def test_structural_edit_quiesces_pending_recomputation(self, tmp_path):
        async def scenario():
            async with WorkbookService(str(tmp_path), fsync=False, step_cells=1) as svc:
                await svc.create_workbook("wb")
                edits = [{"op": "set_value", "cell": f"A{r}", "value": r}
                         for r in range(1, 21)]
                edits += [{"op": "set_formula", "cell": f"B{r}", "formula": f"=A{r}+1"}
                          for r in range(1, 21)]
                await svc.execute("wb", "batch_edit", {"edits": edits})
                # Immediately shift while the pump has barely started:
                # the writer drains before shifting, so no dirty (col,
                # row) position goes stale.
                await svc.execute("wb", "delete_rows", {"row": 1, "count": 5})
                await svc.execute("wb", "recalculate")
                view = await svc.execute("wb", "get_cell", {"cell": "B1"})
                assert view["value"] == 7.0  # old row 6: =A6+1

        run(scenario())

    def test_multi_sheet_ops_route_by_sheet_param(self, tmp_path):
        async def scenario():
            async with WorkbookService(str(tmp_path), fsync=False) as svc:
                await svc.create_workbook("wb", sheets=("Data", "Report"))
                await svc.execute(
                    "wb", "set_cell", {"cell": "A1", "value": 10, "sheet": "Data"}
                )
                await svc.execute(
                    "wb", "set_cell", {"cell": "A1", "value": 20, "sheet": "Report"}
                )
                data = await svc.execute("wb", "get_cell", {"cell": "A1", "sheet": "Data"})
                report = await svc.execute(
                    "wb", "get_cell", {"cell": "A1", "sheet": "Report"}
                )
                assert (data["value"], report["value"]) == (10, 20)
                # Structural edit on Data rewrites Report's reference text.
                await svc.execute(
                    "wb", "set_formula",
                    {"cell": "B1", "formula": "=Data!A1", "sheet": "Report"},
                )
                await svc.execute("wb", "insert_rows", {"row": 1, "sheet": "Data"})
                await svc.execute("wb", "recalculate")
                moved = await svc.execute(
                    "wb", "get_cell", {"cell": "A2", "sheet": "Data"}
                )
                assert moved["value"] == 10

        run(scenario())


class TestAdmissionRaces:
    def test_concurrent_admissions_under_churn_never_strand_a_writer(self, tmp_path):
        """Regression: capacity enforcement after install used to let a
        concurrent admission evict a workbook between its admission and
        the caller's enqueue — the op landed on a dead writer's queue
        and its future never resolved.  Hammer many workbooks through
        few slots concurrently; every write must complete."""

        async def scenario():
            async with WorkbookService(
                str(tmp_path), max_resident=2, fsync=False
            ) as svc:
                ids = [f"wb{i}" for i in range(6)]
                for wb_id in ids:
                    await svc.create_workbook(wb_id)
                for round_no in range(8):
                    ops = [
                        svc.execute(wb_id, "set_cell",
                                    {"cell": "A1", "value": float(round_no)})
                        for wb_id in ids
                    ]
                    ops += [
                        svc.execute(wb_id, "get_cell", {"cell": "A1"})
                        for wb_id in ids
                    ]
                    await asyncio.wait_for(asyncio.gather(*ops), timeout=30)
                assert svc.metrics.evictions > 0
                for wb_id in ids:
                    view = await svc.execute(wb_id, "get_cell", {"cell": "A1"})
                    assert view["value"] == 7.0

        run(scenario())


class TestMetrics:
    def test_ops_and_pool_counters(self, tmp_path):
        async def scenario():
            async with WorkbookService(str(tmp_path), fsync=False, max_resident=1) as svc:
                await svc.create_workbook("a")
                await svc.create_workbook("b")     # evicts a
                await svc.execute("a", "set_cell", {"cell": "A1", "value": 1})  # readmits
                stats = svc.stats()
                assert stats["evictions"] >= 1
                assert stats["readmissions"] >= 1
                assert stats["cold_admissions"] >= 2
                assert stats["total_ops"] >= 1
                assert stats["ops_per_second"] > 0
                assert stats["per_op"]["set_cell"]["count"] == 1
                assert stats["max_resident"] == 1

        run(scenario())

    def test_catalog_introspection(self, tmp_path):
        svc = WorkbookService(str(tmp_path))
        names = {entry["name"] for entry in svc.catalog()}
        assert "get_cell" in names and "batch_edit" in names

"""Evict-to-snapshot → journal-replay re-admit round trips.

The LRU must be invisible: a workbook that was evicted and re-admitted
(possibly several times, under concurrent readers) must end bit-identical
to one that stayed resident the whole time — and to a plain synchronous
engine fed the same edit sequence.
"""

import asyncio
import os
import random
import shutil

import pytest

from repro.engine.journal import read_journal
from repro.engine.recalc import RecalcEngine
from repro.server import WorkbookService
from repro.server.catalog import parse_edits
from repro.sheet.autofill import fill_formula_column
from repro.sheet.sheet import Sheet
from repro.sheet.workbook import Workbook


def run(coro):
    return asyncio.run(coro)


def seed_edits(rows: int = 12) -> list[dict]:
    edits = [{"op": "set_value", "cell": f"A{r}", "value": float(r)}
             for r in range(1, rows + 1)]
    edits += [{"op": "set_formula", "cell": f"B{r}", "formula": f"=A{r}*2+1"}
              for r in range(1, rows + 1)]
    edits.append({"op": "set_formula", "cell": "C1", "formula": f"=SUM(B1:B{rows})"})
    return edits


def oracle_sheet(point_writes) -> Sheet:
    """The same workbook built through the synchronous engine."""
    sheet = Sheet("Sheet1")
    for edit in parse_edits("batch_edit", {"edits": seed_edits()}):
        edit.write(sheet)
    engine = RecalcEngine(sheet)
    engine.recalculate_all()
    for cell, value in point_writes:
        engine.set_value(cell, value)
    return sheet


async def grid_of(svc, wb_id, rng="A1:C12"):
    await svc.execute(wb_id, "recalculate")
    result = await svc.execute(wb_id, "get_range", {"range_ref": rng})
    assert result["dirty_cells"] == 0
    return result["values"]


class TestOneEnginePerSheet:
    def test_each_admission_constructs_one_engine_per_sheet(self, tmp_path, monkeypatch):
        """Admission keeps the engines it (or journal replay) already
        built, and from then on they defer and journal."""
        built = []
        init = RecalcEngine.__init__

        def counting_init(self, sheet, *args, **kwargs):
            built.append(sheet.name)
            init(self, sheet, *args, **kwargs)

        monkeypatch.setattr(RecalcEngine, "__init__", counting_init)
        live, crashed = tmp_path / "live", tmp_path / "crashed"

        async def first():
            async with WorkbookService(str(live), fsync=False) as svc:
                await svc.create_workbook("wb", sheets=("Data", "Report"))
                assert sorted(built) == ["Data", "Report"]
                await svc.execute("wb", "set_cell", {"cell": "A1", "value": 4, "sheet": "Data"})
                await svc.execute(
                    "wb", "set_formula",
                    {"cell": "B1", "formula": "=A1*A1", "sheet": "Data"},
                )
                # What a crash here leaves on disk: the creation snapshot
                # and a journal holding both writes.
                shutil.copytree(live, crashed)

        async def second():
            async with WorkbookService(str(crashed), fsync=False) as svc:
                view = await svc.execute("wb", "get_cell", {"cell": "B1", "sheet": "Data"})
                # Data's engine by journal replay, Report's over the
                # snapshot's graph — and no further ones.
                assert sorted(built) == ["Data", "Report"]
                assert (view["value"], view["dirty"]) == (16.0, False)
                ticket = await svc.execute(
                    "wb", "set_cell", {"cell": "A1", "value": 5, "sheet": "Data"}
                )
                assert (ticket["dirty_count"], ticket["pending"]) == (1, 1)
                assert len(read_journal(str(crashed / "wb.wal")).records) == 4  # stamp + 3

        run(first())
        del built[:]
        run(second())


class TestRoundTrips:
    @pytest.mark.parametrize("fsync", [True, False])
    def test_evicted_workbook_matches_never_evicted(self, tmp_path, fsync):
        async def scenario():
            async with WorkbookService(
                str(tmp_path), max_resident=2, fsync=fsync
            ) as svc:
                # "hot" never leaves; "cold" gets cycled out repeatedly.
                await svc.create_workbook("hot")
                await svc.create_workbook("cold")
                for wb in ("hot", "cold"):
                    await svc.execute(wb, "batch_edit", {"edits": seed_edits()})
                writes = []
                for i in range(6):
                    cell, value = f"A{i + 1}", float(100 + i)
                    writes.append((cell, value))
                    await svc.execute("cold", "set_cell", {"cell": cell, "value": value})
                    await svc.execute("hot", "set_cell", {"cell": cell, "value": value})
                    # Admitting a fresh workbook evicts "cold" (LRU);
                    # touching it again re-admits from snapshot+journal.
                    await svc.create_workbook(f"filler{i}")
                    await svc.execute(f"filler{i}", "set_cell", {"cell": "A1", "value": i})
                assert svc.metrics.evictions >= 6
                assert svc.metrics.readmissions >= 5
                cold = await grid_of(svc, "cold")
                hot = await grid_of(svc, "hot")
                assert cold == hot
                # And both match the plain synchronous engine.
                oracle = oracle_sheet(writes)
                expected = [
                    [oracle.get_value((c, r)) for c in (1, 2, 3)]
                    for r in range(1, 13)
                ]
                assert cold == expected

        run(scenario())

    def test_round_trip_under_concurrent_reads(self, tmp_path):
        async def scenario():
            async with WorkbookService(
                str(tmp_path), max_resident=2, fsync=False
            ) as svc:
                await svc.create_workbook("target")
                await svc.execute("target", "batch_edit", {"edits": seed_edits()})
                await svc.execute("target", "recalculate")
                stop = False
                read_values = []

                async def reader():
                    while not stop:
                        view = await svc.execute("target", "get_cell", {"cell": "C1"})
                        if not view["dirty"]:
                            read_values.append(view["value"])
                        await asyncio.sleep(0)

                readers = [asyncio.ensure_future(reader()) for _ in range(3)]
                writes = []
                for i in range(5):
                    cell, value = f"A{i + 1}", float(100 + i)
                    writes.append((cell, value))
                    await svc.execute("target", "set_cell", {"cell": cell, "value": value})
                    await svc.create_workbook(f"spin{i}a")
                    await svc.create_workbook(f"spin{i}b")
                    await asyncio.sleep(0)
                stop = True
                await asyncio.gather(*readers)
                assert svc.metrics.evictions > 0
                assert svc.metrics.readmissions > 0
                assert read_values  # readers made progress throughout
                grid = await grid_of(svc, "target")
                oracle = oracle_sheet(writes)
                expected = [
                    [oracle.get_value((c, r)) for c in (1, 2, 3)]
                    for r in range(1, 13)
                ]
                assert grid == expected

        run(scenario())

    def test_service_restart_over_same_data_dir(self, tmp_path):
        async def first():
            async with WorkbookService(str(tmp_path), fsync=False) as svc:
                await svc.create_workbook("wb")
                await svc.execute("wb", "batch_edit", {"edits": seed_edits()})
                await svc.execute("wb", "set_cell", {"cell": "A1", "value": 500.0})

        async def second():
            async with WorkbookService(str(tmp_path), fsync=False) as svc:
                grid = await grid_of(svc, "wb")
                oracle = oracle_sheet([("A1", 500.0)])
                expected = [
                    [oracle.get_value((c, r)) for c in (1, 2, 3)]
                    for r in range(1, 13)
                ]
                assert grid == expected
                await svc.execute("wb", "set_cell", {"cell": "A2", "value": 600.0})

        async def third():
            async with WorkbookService(str(tmp_path), fsync=False) as svc:
                view = await svc.execute("wb", "get_cell", {"cell": "A2"})
                assert view["value"] == 600.0

        run(first())
        run(second())
        run(third())


class TestEvictingTwin:
    """A service that evicts on every op against a twin that never does:
    the same op mix the ledger's ``serve_*`` workloads issue, over
    workbooks made of autofilled columns — so every answer of the first
    comes off a workbook rebuilt from run records and value planes."""

    ROWS = 24
    READS = ("get_cell", "get_range")

    def ledger(self, wb_id: str) -> Workbook:
        workbook = Workbook(wb_id)
        sheet = workbook.add_sheet("Ledger")
        for r in range(1, self.ROWS + 1):
            sheet.set_value((1, r), float((r * 31) % 17) + 1.0)
            sheet.set_value((2, r), float((r * 7) % 5) + 1.0)
        sheet.set_formula("C1", "=A1+B1")
        fill_formula_column(sheet, 3, 2, self.ROWS, "=C1+A2")
        fill_formula_column(sheet, 4, 1, self.ROWS, "=SUM($A$1:A1)")
        fill_formula_column(sheet, 5, 1, self.ROWS, "=A1*B1")
        sheet.set_formula("F1", f"=SUM(C1:C{self.ROWS})")
        return workbook

    def ops(self) -> list[tuple[str, dict]]:
        rng = random.Random(7)
        row = lambda: rng.randint(1, self.ROWS)  # noqa: E731
        ops = [
            # Inside an autofilled column, then the row below it with the
            # same template: the family is cut in three around a new pair.
            ("set_formula", {"cell": "E9", "formula": "=A9*B9+3"}),
            ("set_formula", {"cell": "E9", "formula": "=A9*B9+3"}),     # (one per workbook)
            ("set_formula", {"cell": "E10", "formula": "=A10*B10+3"}),
            ("set_formula", {"cell": "E10", "formula": "=A10*B10+3"}),
        ]
        kinds = rng.choices(
            ("get_cell", "get_range", "set_cell", "set_formula", "batch_edit"),
            weights=(55, 15, 22, 3, 5), k=70,
        ) + ["set_formula", "batch_edit", "get_range", "get_cell"] * 2
        for kind in kinds:
            if kind == "get_cell":
                params = {"cell": f"{rng.choice('ABCDEF')}{row()}"}
            elif kind == "get_range":
                top = rng.randint(1, self.ROWS - 9)
                params = {"range_ref": f"A{top}:F{top + 9}"}
            elif kind == "set_cell":
                params = {"cell": f"{rng.choice('AB')}{row()}",
                          "value": round(rng.uniform(1, 500), 3)}
            elif kind == "set_formula":
                at = row()
                params = {"cell": f"E{at}", "formula": f"=A{at}*B{at}+{rng.randint(1, 9)}"}
            else:
                params = {"edits": [
                    {"op": "set_value", "cell": f"{'AB'[i % 2]}{row()}",
                     "value": round(rng.uniform(1, 500), 3)}
                    for i in range(5)
                ]}
            ops.append((kind, params))
        return ops

    @staticmethod
    def sheet_state(svc, wb_id):
        sheet = svc._residents[wb_id].workbook.active_sheet
        cells = {pos: (cell.formula_text, cell.value) for pos, cell in sheet.items()}
        runs = [(t.key, col, r0, r1) for t, col, r0, r1 in sheet.formula_runs()]
        return cells, runs, len(sheet)

    def test_every_answer_matches_the_never_evicting_twin(self, tmp_path):
        ops = self.ops()

        async def scenario():
            churn = WorkbookService(str(tmp_path / "churn"), max_resident=1, fsync=False)
            twin = WorkbookService(str(tmp_path / "twin"), max_resident=4, fsync=False)
            async with churn, twin:
                for wb in ("a", "b"):
                    for svc in (churn, twin):
                        await svc.create_workbook(wb, workbook=self.ledger(wb))
                for i, (op, params) in enumerate(ops):
                    wb = "ab"[i % 2]        # so each op evicts the other workbook
                    replies = []
                    for svc in (churn, twin):
                        if op in self.READS:
                            await svc.execute(wb, "recalculate")
                        reply = await svc.execute(wb, op, params)
                        for volatile in ("pending", "control_return_seconds"):
                            reply.pop(volatile, None)
                        replies.append(reply)
                    assert replies[0] == replies[1], (i, op, params)
                # Every op re-admitted its workbook: far more than the two
                # generations the cut family has to survive.
                assert churn.metrics.readmissions >= len(ops) - 1
                assert twin.metrics.evictions == 0
                for wb in ("a", "b"):
                    states = []
                    for svc in (churn, twin):
                        await svc.execute(wb, "recalculate")
                        states.append(self.sheet_state(svc, wb))
                    assert states[0] == states[1]
                    cells, runs, _ = states[0]
                    assert cells[(5, 9)][0] == "A9*B9+3" and cells[(5, 10)][0] == "A10*B10+3"
                    assert {(col, r0, r1) for _, col, r0, r1 in runs} >= {(4, 1, self.ROWS)}

        run(scenario())


class TestDurabilityPath:
    def test_fsync_false_journal_still_records_and_replays(self, tmp_path):
        async def scenario():
            svc = WorkbookService(str(tmp_path), fsync=False)
            await svc.create_workbook("wb")
            await svc.execute("wb", "set_cell", {"cell": "A1", "value": 4})
            await svc.execute("wb", "set_formula", {"cell": "B1", "formula": "=A1*3"})
            # Abandon without close(): the journal prefix alone must
            # carry the acknowledged writes.
            for res in svc._residents.values():
                res.journal.close()
                res.writer.cancel()
            records = read_journal(str(tmp_path / "wb.wal")).records
            kinds = [r["kind"] for r in records]
            assert kinds == ["open", "cell", "cell"]

        run(scenario())

        async def reopen():
            async with WorkbookService(str(tmp_path), fsync=False) as svc:
                view = await svc.execute("wb", "get_cell", {"cell": "B1"})
                assert view["dirty"] is False
                assert view["value"] == 12.0

        run(reopen())

    def test_eviction_rotates_journal_to_new_snapshot(self, tmp_path):
        async def scenario():
            async with WorkbookService(
                str(tmp_path), max_resident=1, fsync=False
            ) as svc:
                await svc.create_workbook("wb")
                await svc.execute("wb", "set_cell", {"cell": "A1", "value": 1})
                await svc.create_workbook("other")  # evicts wb
                records = read_journal(str(tmp_path / "wb.wal")).records
                # Post-eviction journal: just the fresh pairing stamp.
                assert [r["kind"] for r in records] == ["open"]
                view = await svc.execute("wb", "get_cell", {"cell": "A1"})
                assert view["value"] == 1

        run(scenario())

    def test_crashed_eviction_rotation_is_repaired(self, tmp_path):
        """Crash window: eviction wrote the new snapshot but died before
        rotating the journal.  Admission detects the superseded journal
        by its pairing stamp and repairs instead of failing."""

        async def build():
            async with WorkbookService(str(tmp_path), fsync=False) as svc:
                await svc.create_workbook("wb")
                await svc.execute("wb", "set_cell", {"cell": "A1", "value": 9})
                await svc.execute(
                    "wb", "set_formula", {"cell": "B1", "formula": "=A1+1"}
                )

        run(build())
        # close() evicted: snapshot is fresh, journal is just the stamp.
        # Simulate the crash by regressing the journal to the *previous*
        # epoch's stamp (an id the current snapshot no longer carries).
        from repro.engine.journal import Journal

        wal = str(tmp_path / "wb.wal")
        os.remove(wal)
        stale = Journal(wal, fsync=False, truncate=True, snapshot_id="stale-epoch")
        stale.close()

        async def reopen():
            async with WorkbookService(str(tmp_path), fsync=False) as svc:
                view = await svc.execute("wb", "get_cell", {"cell": "B1"})
                assert view["value"] == 10.0
                assert svc.metrics.rotation_repairs == 1
                # The repaired journal is rotated forward: new writes land.
                await svc.execute("wb", "set_cell", {"cell": "A1", "value": 20})

        run(reopen())

        async def verify():
            async with WorkbookService(str(tmp_path), fsync=False) as svc:
                view = await grid_of(svc, "wb", rng="B1:B1")
                assert view == [[21.0]]

        run(verify())


class TestCleanEviction:
    """An eviction has something to write only if the journal holds an
    edit: appended during the residency, or replayed into it."""

    def ledger(self) -> Workbook:
        return TestEvictingTwin().ledger("wb")

    @staticmethod
    def disk(tmp_path) -> tuple[bytes, bytes]:
        return (tmp_path / "wb.snap").read_bytes(), (tmp_path / "wb.wal").read_bytes()

    @staticmethod
    async def evict(svc, wb_id="wb"):
        """Push ``wb_id`` out by admitting another workbook."""
        filler = f"filler{svc.metrics.evictions}"
        await svc.create_workbook(filler)
        assert wb_id not in svc.resident_ids

    def test_a_read_only_residency_leaves_the_disk_pair_alone(self, tmp_path):
        async def scenario():
            async with WorkbookService(str(tmp_path), max_resident=1) as svc:
                await svc.create_workbook("wb", workbook=self.ledger())
                created = self.disk(tmp_path)
                before = await svc.execute("wb", "get_range", {"range_ref": "A1:F24"})
                await self.evict(svc)                       # fresh, untouched
                assert self.disk(tmp_path) == created
                for _ in range(3):                          # re-admitted, read, evicted
                    again = await svc.execute("wb", "get_range", {"range_ref": "A1:F24"})
                    assert again == before
                    await svc.execute("wb", "get_cell", {"cell": "D24"})
                    await svc.execute("wb", "summarize_sheet")
                    await svc.execute("wb", "batch_edit", {"edits": []})   # commits nothing
                    await self.evict(svc)
                    assert self.disk(tmp_path) == created
                assert svc.metrics.readmissions == 3 and svc.metrics.journal_records == 0
            assert self.disk(tmp_path) == created           # and close() wrote nothing

        run(scenario())

    def test_one_write_makes_the_next_eviction_snapshot_and_rotate(self, tmp_path):
        async def scenario():
            async with WorkbookService(str(tmp_path), max_resident=1) as svc:
                await svc.create_workbook("wb", workbook=self.ledger())
                created = self.disk(tmp_path)
                paired = read_journal(str(tmp_path / "wb.wal")).records
                await svc.execute("wb", "set_cell", {"cell": "A1", "value": 77.0})
                snap, wal = self.disk(tmp_path)
                assert snap == created[0] and len(wal) > len(created[1])
                await self.evict(svc)
                snap, wal = self.disk(tmp_path)
                assert snap != created[0]
                stamps = read_journal(str(tmp_path / "wb.wal")).records
                assert [r["kind"] for r in stamps] == ["open"]
                assert stamps != paired                     # a new pairing
                view = await svc.execute("wb", "get_cell", {"cell": "C24"})
                assert not view["dirty"]
                rotated = self.disk(tmp_path)
                await self.evict(svc)                       # clean again
                assert self.disk(tmp_path) == rotated
                return view["value"]

        value = run(scenario())
        sheet = self.ledger()["Ledger"]
        engine = RecalcEngine(sheet)
        engine.recalculate_all()
        engine.set_value("A1", 77.0)
        assert value == sheet.get_value("C24")

    def test_a_replayed_journal_is_compacted_not_skipped(self, tmp_path):
        live, crashed = tmp_path / "live", tmp_path / "crashed"

        async def first():
            async with WorkbookService(str(live)) as svc:
                await svc.create_workbook("wb", workbook=self.ledger())
                await svc.execute("wb", "set_cell", {"cell": "A1", "value": 77.0})
                shutil.copytree(live, crashed)              # killed right here

        async def second():
            async with WorkbookService(str(crashed), max_resident=1) as svc:
                before = self.disk(crashed)
                view = await svc.execute("wb", "get_cell", {"cell": "C1"})
                assert view["value"] == 77.0 + 3.0          # the record was replayed
                assert self.disk(crashed) == before
                await self.evict(svc)                       # no write since admission
                snap, wal = self.disk(crashed)
                assert snap != before[0] and len(wal) < len(before[1])
                kinds = [r["kind"] for r in read_journal(str(crashed / "wb.wal")).records]
                assert kinds == ["open"]
                again = await svc.execute("wb", "get_cell", {"cell": "C1"})
                assert again["value"] == view["value"]

        run(first())
        run(second())


"""Unit tests for the typed columnar value store.

The store promises two things: the Sheet accessor surface behaves
identically on it and on the seed's per-cell store
(:mod:`repro.baselines.object_store`), and *write-through* views —
a ``ColumnarCell`` can never go stale relative to the arrays, because
it has no shadow storage of its own.
"""

from array import array

import pytest

from repro.baselines.object_store import ObjectSheet
from repro.formula.errors import ExcelError
from repro.grid.range import Range
from repro.sheet.columnar import (
    TAG_BOOL,
    TAG_EMPTY,
    TAG_ERROR,
    TAG_NUMBER,
    TAG_STRING,
    ColumnarCell,
    ColumnarStore,
)
from repro.sheet.sheet import Sheet


#: Either store behind the same ``Sheet`` surface.
SHEETS = {"columnar": Sheet, "object": ObjectSheet}


class TestTagPlane:
    def test_value_kinds_round_trip(self):
        store = ColumnarStore()
        samples = {
            (1, 1): 3.5,
            (1, 2): "text",
            (1, 3): True,
            (1, 4): False,
            (1, 5): ExcelError("#DIV/0!"),
        }
        for (col, row), value in samples.items():
            store.write_pure(col, row, value)
        for (col, row), want in samples.items():
            got = store.read_value(col, row)
            if isinstance(want, ExcelError):
                assert isinstance(got, ExcelError) and got.code == want.code
            else:
                assert type(got) is type(want) and got == want

    def test_integers_canonicalise_to_float64(self):
        store = ColumnarStore()
        store.write_pure(1, 1, 42)
        got = store.read_value(1, 1)
        assert type(got) is float and got == 42.0

    def test_non_number_slots_keep_zero_values(self):
        """Invariant the vectorized sweep relies on: the raw float lane
        under a STRING/ERROR/EMPTY tag is exactly 0.0, and BOOL is 0/1."""
        store = ColumnarStore()
        store.write_pure(1, 1, "txt")
        store.write_pure(1, 2, ExcelError("#VALUE!"))
        store.write_pure(1, 3, True)
        store.write_pure(1, 5, 9.0)
        store.write_pure(1, 5, None)          # erase after occupying
        values, tags = store.column_buffers(1)
        assert list(tags[:5]) == [TAG_STRING, TAG_ERROR, TAG_BOOL,
                                  TAG_EMPTY, TAG_EMPTY]
        assert list(values[:5]) == [0.0, 0.0, 1.0, 0.0, 0.0]

    def test_side_table_evicted_on_overwrite(self):
        store = ColumnarStore()
        store.write_pure(2, 1, "old-string")
        store.write_pure(2, 1, 7.0)
        column = store.ensure_column(2, 1)
        assert column.side == {}
        assert store.read_value(2, 1) == 7.0

    def test_point_write_fast_path_matches_the_general_one(self):
        """A ``(col, row)`` target and a plain float take a shortcut past
        target coercion, classification and column growth; tags, values,
        side tables, column versions and the cell count come out as
        through an A1 target and a float subclass, which take none."""

        class Float(float):
            pass

        writes = [((2, 3), 1.5), ((2, 40), 2.5), ((2, 3), "s"), ((2, 3), 4.0),
                  ((2, 1), None), ((2, 2), 0.0), ((3, 1), -1.0), ((2, 40), None)]
        fast, general = Sheet("S"), Sheet("S")
        general.set_formula("B2", "=1+1")
        fast.set_formula("B2", "=1+1")
        for pos, value in writes:
            fast.set_value(pos, value)
            slow_value = Float(value) if type(value) is float else value
            general.set_value(Range.cell(*pos).to_a1(), slow_value)
            for col in (2, 3):
                a, b = fast._cells, general._cells
                assert a.column_version(col) == b.column_version(col)
                assert a.column_buffers(col) == b.column_buffers(col)
                assert a.ensure_column(col, 1).side == b.ensure_column(col, 1).side
            assert len(fast) == len(general)
        assert type(fast.get_value((3, 1))) is float and fast.get_value((3, 1)) == -1.0

    def test_out_of_band_reads_are_none(self):
        store = ColumnarStore()
        store.write_pure(1, 1, 1.0)
        assert store.read_value(1, 999) is None
        assert store.read_value(999, 1) is None


class TestBands:
    """``read_band`` / ``write_band`` / ``range_numbers``: whole stretches
    of a column as flat buffers."""

    def filled(self):
        sheet = Sheet("S")
        for r, value in enumerate((1.5, "txt", True, None, -0.0, 4.0), start=1):
            sheet.set_value((1, r), value)
        for r in range(1, 7):
            sheet.set_formula((2, r), f"=A{r}")
        return sheet, sheet._cells

    def test_read_band_is_a_clipped_copy(self):
        _, store = self.filled()
        values, tags = store.read_band(1, 2, 5)
        assert list(tags) == [TAG_STRING, TAG_BOOL, TAG_EMPTY, TAG_NUMBER]
        assert list(values) == [0.0, 1.0, 0.0, -0.0]
        values[0] = 9.0                                   # a copy, not a view
        assert store.read_value(1, 2) == "txt"
        assert [len(part) for part in store.read_band(1, 1, 10 ** 6)] == \
            [len(store.ensure_column(1, 1).tags)] * 2     # cut at the physical end
        assert [len(part) for part in store.read_band(7, 1, 5)] == [0, 0]

    def test_write_band_lands_numbers_once(self):
        sheet, store = self.filled()
        sheet.formula_at((2, 2)).value = "stale"
        sheet.formula_at((2, 5)).value = ExcelError("#N/A")
        count, version = len(store), store.column_version(2)
        store.write_band(2, 2, array("d", (7.0, 8.0, 9.0, 10.0)))
        assert [store.read_value(2, r) for r in range(1, 7)] == [None, 7.0, 8.0, 9.0, 10.0, None]
        assert store.ensure_column(2, 1).side == {}
        assert store.column_version(2) == version + 1
        assert len(store) == count                         # formula cells: occupancy stands
        store.write_band(2, 1, array("d"))                 # nothing to write, nothing moves
        assert store.column_version(2) == version + 1

    def test_range_numbers_keeps_row_major_order(self):
        sheet, store = self.filled()
        for r, value in enumerate((10.0, 20.0, "x", 40.0), start=1):
            sheet.set_value((3, r), value)
        walked = [v for _, _, v in store.iter_range(Range(1, 1, 3, 9))
                  if type(v) is float]
        assert list(store.range_numbers(1, 1, 3, 9)) == walked == \
            [1.5, 10.0, 20.0, 40.0, -0.0, 4.0]
        assert list(store.range_numbers(1, 1, 1, 9)) == [1.5, -0.0, 4.0]
        assert list(store.range_numbers(5, 1, 6, 9)) == []

    def test_range_numbers_leaves_errors_to_the_walk(self):
        sheet, store = self.filled()
        sheet.set_value((1, 4), ExcelError("#DIV/0!"))
        assert store.range_numbers(1, 1, 1, 6) is None
        assert store.range_numbers(1, 1, 1, 3) is not None


class TestWriteThroughViews:
    def test_view_write_is_visible_to_bulk_reads(self):
        """Satellite regression: assigning ``cell.value`` on a
        materialised view must update the arrays, not a shadow slot."""
        sheet = Sheet("S")
        sheet.set_value("A1", 10.0)
        view = sheet.cell_at("A1")
        view.value = 99.0
        # Every read path sees the write: scalar, raw, range iteration.
        assert sheet.get_value("A1") == 99.0
        assert sheet.raw_value(1, 1) == 99.0
        assert list(sheet.resolver_iter_cells(None, Range.cell(1, 1))) == [
            (1, 1, 99.0)
        ]
        # ...and a second, independently-materialised view agrees.
        assert sheet.cell_at("A1").value == 99.0

    def test_store_write_is_visible_to_old_views(self):
        sheet = Sheet("S")
        sheet.set_value("A1", 1.0)
        view = sheet.cell_at("A1")
        sheet.set_value("A1", 2.0)
        assert view.value == 2.0

    def test_formula_cell_value_writes_through(self):
        sheet = Sheet("S")
        sheet.set_formula("B1", "=A1+1")
        cell = sheet.cell_at("B1")
        assert cell.is_formula and cell.value is None
        cell.value = 5.0                       # what the engine does
        assert sheet.get_value("B1") == 5.0
        assert sheet.raw_value(2, 1) == 5.0
        # Still a formula: occupancy and the run record survive the write.
        assert sheet.formula_at("B1").formula_text == "A1+1" and len(sheet) == 1

    def test_view_none_write_erases_pure_cell(self):
        sheet = Sheet("S")
        sheet.set_value("A1", 1.0)
        sheet.cell_at("A1").value = None
        assert sheet.cell_at("A1") is None
        assert len(sheet) == 0

    def test_a_formula_view_is_a_snapshot_of_its_record(self):
        """Views are transient: a structural edit moves the run record,
        not the view taken before it."""
        sheet = Sheet("S")
        sheet.set_formula("A5", "=1+1")
        cell = sheet.formula_at("A5")
        assert sheet.formula_at("A5") is not cell
        sheet._cells.structural_edit("row", "insert", 2, 3)
        assert sheet.formula_at("A5") is None
        assert sheet.formula_at((1, 8)).source_text == "1+1"


class TestMappingFacade:
    def test_len_counts_formulas_with_none_value(self):
        store = ColumnarStore()
        store.put_formula((1, 1), formula_text="A2+1")
        assert len(store) == 1 and store.cell_at((1, 1)) is not None
        store.write_pure(1, 2, 5.0)
        assert len(store) == 2
        # Overwriting the formula with a pure value keeps the count.
        store.write_pure(1, 1, 9.0)
        assert len(store) == 2 and store.formula_count == 0

    def test_iteration_covers_both_planes(self):
        store = ColumnarStore()
        store.write_pure(1, 3, 1.0)
        store.put_formula((2, 1), formula_text="A3*2")
        assert set(store) == {(1, 3), (2, 1)}
        items = dict(store.items())
        assert items[(1, 3)].value == 1.0
        assert items[(2, 1)].is_formula


class TestStructuralEdits:
    def test_row_delete_splices_and_counts(self):
        store = ColumnarStore()
        for r in range(1, 11):
            store.write_pure(1, r, float(r))
        store.write_pure(1, 5, "five")
        removed = store.structural_edit("row", "delete", 4, 3)
        assert removed == 3
        assert len(store) == 7
        # Row 7 (was row 10) slid up; the side entry for "five" is gone.
        assert store.read_value(1, 7) == 10.0
        assert store.ensure_column(1, 1).side == {}

    def test_column_insert_rekeys(self):
        store = ColumnarStore()
        store.write_pure(2, 1, 1.0)
        store.put_formula((3, 1), formula_text="B1*2", value=2.0)
        store.structural_edit("col", "insert", 2, 2)
        assert store.read_value(4, 1) == 1.0
        cell = store.formula_at((5, 1))
        assert cell is not None and cell.value == 2.0
        assert store.read_value(2, 1) is None

    def test_formula_with_none_value_counts_in_delete(self):
        store = ColumnarStore()
        store.put_formula((1, 2), formula_text="1+1")   # cached value None
        store.write_pure(1, 3, 1.0)
        removed = store.structural_edit("row", "delete", 1, 3)
        assert removed == 2
        assert len(store) == 0 and store.formula_count == 0


class TestExportImport:
    def test_round_trip_keeps_formula_values(self):
        """A plane lands whole (formula cached values included), the run
        attaches over it, and every position is counted once."""
        from array import array

        store = ColumnarStore()
        store.write_pure(1, 2, 1.5)
        store.write_pure(1, 5, "txt")
        store.put_formula((1, 3), formula_text="A2*2", value=3.0)
        store.put_formula((1, 4), template=store.formula_at((1, 3)).template)  # never evaluated
        (col, (tags, value_bytes, side)), = store.export_planes().items()
        assert list(tags[:5]) == [TAG_EMPTY, TAG_NUMBER, TAG_NUMBER, TAG_EMPTY, TAG_STRING]
        assert side == {4: "txt"}
        values = array("d")
        values.frombytes(value_bytes)
        fresh = ColumnarStore()
        fresh.import_column(col, 2, tags[1:5], values[1:5], {3: "txt"})
        assert len(fresh) == 3
        template = store.formula_at((1, 3)).template
        fresh.attach_run(1, 3, 4, template, "A2*2")
        assert len(fresh) == len(store) == 4
        assert [fresh.read_value(1, r) for r in range(1, 6)] == [None, 1.5, 3.0, None, "txt"]
        anchor, member = fresh.formula_at((1, 3)), fresh.formula_at((1, 4))
        assert anchor.source_text == "A2*2" and member.source_text is None
        assert anchor.template is member.template is template
        assert member.formula_text == store.formula_at((1, 4)).formula_text

    def test_import_rejects_occupied_rows(self):
        from array import array

        store = ColumnarStore()
        store.write_pure(1, 2, 1.0)
        with pytest.raises(ValueError, match="occupied"):
            store.import_column(1, 1, b"\x01\x01", array("d", [1.0, 2.0]), {})
        assert len(store) == 1 and store.read_value(1, 1) is None

    def test_import_rejects_length_mismatch(self):
        from array import array

        store = ColumnarStore()
        with pytest.raises(ValueError):
            store.import_column(1, 1, b"\x01\x01", array("d", [1.0]), {})


class TestSheetParity:
    """The Sheet accessor surface behaves identically on either store."""

    OPS = (
        ("A1", 1.0), ("A2", "x"), ("B1", True), ("C7", -2.5),
        ("A1", None), ("B1", 8.0),
    )

    def build(self, kind):
        sheet = SHEETS[kind]("P")
        for target, value in self.OPS:
            sheet.set_value(target, value)
        sheet.set_formula("D1", "=B1*2")
        return sheet

    def test_accessor_parity(self):
        a, b = self.build("columnar"), self.build("object")
        assert set(a.positions()) == set(b.positions())
        assert len(a) == len(b)
        assert a.used_range() == b.used_range()
        assert a.formula_count == b.formula_count
        for pos in a.positions():
            assert a.get_value(pos) == b.get_value(pos), pos
        deps_a = {(d.prec, d.dep) for d in a.iter_dependencies()}
        deps_b = {(d.prec, d.dep) for d in b.iter_dependencies()}
        assert deps_a == deps_b

    def test_resolver_iteration_order_matches(self):
        a, b = self.build("columnar"), self.build("object")
        rng = Range(1, 1, 4, 8)
        assert list(a.resolver_iter_cells(None, rng)) == list(
            b.resolver_iter_cells(None, rng)
        )

    @pytest.mark.parametrize("kind", ["columnar", "object"])
    def test_attach_formula_run_keeps_values_and_counts_once(self, kind):
        from repro.formula.parser import parse_formula
        from repro.formula.template import intern_template

        sheet = SHEETS[kind]("P")
        for r in (1, 2, 4):
            sheet.set_value((2, r), float(r * 10))      # cached values, row 3 never evaluated
        sheet.set_value((3, 1), "keep")
        template = intern_template(parse_formula("A1*2"), 2, 1)
        sheet.attach_formula_run(2, 1, 4, template, "A1*2")
        sheet.attach_formula_run(3, 1, 1, None, "A1 & B1")  # a typed cell: text only
        assert len(sheet) == 5 and sheet.formula_count == 5
        assert [sheet.get_value((2, r)) for r in (1, 2, 3, 4)] == [10.0, 20.0, None, 40.0]
        assert sheet.get_value("C1") == "keep"
        assert [(col, r0, r1) for _, col, r0, r1 in sheet.formula_runs()] == \
            [(2, 1, 4), (3, 1, 1)]
        assert sheet.cell_at("B1").source_text == "A1*2"
        assert sheet.cell_at("B3").source_text is None
        assert sheet.cell_at("B3").template is template
        assert sheet.cell_at("C1").formula_text == "A1 & B1"
        with pytest.raises(ValueError):
            sheet.attach_formula_run(4, 1, 2, None, "A1")


    def test_structural_edit_alone_moves_formulas_with_their_templates(self):
        """The contract the structural pass builds on: ``structural_edit``
        by itself re-hosts every moved member with its template (a typed
        one with its text too), so a member reads its formula at the new
        host, autofill-shifted with the move — on both stores alike."""
        from repro.sheet.autofill import fill_formula_column

        texts = []
        for kind in ("columnar", "object"):
            sheet = SHEETS[kind]("P")
            fill_formula_column(sheet, 2, 1, 6, "=A1*$C$1")
            sheet.set_formula("D4", "=A4+1")
            sheet._cells.structural_edit("row", "insert", 3, 2)
            texts.append({pos: cell.formula_text for pos, cell in sheet.formula_cells()})
        assert texts[0] == texts[1] == {
            (2, 1): "A1*$C$1", (2, 2): "(A2*$C$1)",
            **{(2, r): f"(A{r}*$C$1)" for r in range(5, 9)},
            (4, 6): "A4+1",
        }

    def test_import_column_lands_every_kind_into_vacant_rows(self):
        sheet = Sheet("P")
        sheet.set_value("B1", 9.0)
        tags = bytes((TAG_NUMBER, TAG_EMPTY, TAG_BOOL, TAG_STRING, TAG_ERROR))
        values = array("d", [1.5, 0.0, 1.0, 0.0, 0.0])
        side = {3: "txt", 4: ExcelError("#N/A")}
        sheet.import_column(2, 2, tags, values, side)
        assert len(sheet) == 5
        assert [sheet.get_value((2, r)) for r in range(1, 7)] == \
            [9.0, 1.5, None, True, "txt", ExcelError("#N/A")]
        with pytest.raises(ValueError, match="occupied"):
            sheet.import_column(2, 6, b"\x01\x01", array("d", [1.0, 2.0]), {})
        with pytest.raises(ValueError, match="length"):
            sheet.import_column(3, 1, b"\x01\x01", array("d", [1.0]), {})
        assert len(sheet) == 5 and sheet.get_value((2, 7)) is None


class TestBounds:
    """``bounds()`` reads column extents off the tag buffers; the oracle
    is the per-cell loop it replaced."""

    @staticmethod
    def loop_bounds(store):
        positions = list(store)
        if not positions:
            return None
        cols = [col for col, _ in positions]
        rows = [row for _, row in positions]
        return (min(cols), min(rows), max(cols), max(rows))

    def test_empty_store(self):
        store = ColumnarStore()
        assert store.bounds() is None
        store.write_pure(3, 7, 1.0)
        store.write_pure(3, 7, None)            # column exists, nothing in it
        assert store.bounds() is None

    def test_sparse_sheet(self):
        store = ColumnarStore()
        store.write_pure(9, 400, "far")
        store.write_pure(2, 3, 1.0)
        store.write_pure(5, 1, True)
        store.write_pure(5, 90, 2.0)
        store.write_pure(5, 90, None)           # erased tail must not count
        assert store.bounds() == self.loop_bounds(store) == (2, 1, 9, 400)

    def test_formula_only_columns(self):
        store = ColumnarStore()
        store.write_pure(4, 5, 1.0)
        store.put_formula((8, 2), formula_text="D5*2")      # never evaluated
        store.put_formula((1, 30), formula_text="D5+1")
        assert store.bounds() == self.loop_bounds(store) == (1, 2, 8, 30)
        store.formula_at((1, 30)).value = 2.0               # now tagged
        store.formula_at((8, 2)).value = 2.0
        assert store.bounds() == self.loop_bounds(store) == (1, 2, 8, 30)

    def test_random_edits_match_the_loop(self):
        import random

        rng = random.Random(7)
        store = ColumnarStore()
        for _ in range(400):
            pos = (rng.randint(1, 12), rng.randint(1, 60))
            kind = rng.random()
            if kind < 0.45:
                store.write_pure(*pos, rng.choice([1.5, "s", False]))
            elif kind < 0.6:
                store.put_formula(pos, formula_text="A1+1", value=rng.choice([None, 3.0]))
            else:
                store.write_pure(*pos, None)
            assert store.bounds() == self.loop_bounds(store)

    def test_sheet_used_range_agrees_across_stores(self):
        sheets = [Sheet("S"), ObjectSheet("S")]
        for sheet in sheets:
            sheet.set_value("C4", 1.0)
            sheet.set_formula("H2", "=C4")
            sheet.set_value("A9", "x")
        assert sheets[0].used_range() == sheets[1].used_range() == Range.from_a1("A2:H9")

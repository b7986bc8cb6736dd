"""Crash-point fuzz over the golden version-1 journal
(``fixtures/make_journal_v1.py``: every record shape, two sheets, and
the live state after every complete-record prefix).  Wherever a crash
cuts the journal — between records, in a frame header, mid-payload, or
by corrupting bytes — recovery must restore exactly the state of the
complete-record prefix before the cut, and never raise on the torn tail.
Offsets inside records are sampled, or all swept under
``REPRO_JOURNAL_FUZZ=exhaustive`` (the CI journal-fuzz job).
"""

import io
import json
import os
import random
import sys

import pytest

from repro.engine.journal import Journal, JournalFormatError, read_journal, recover
from repro.engine.recalc import RecalcEngine
from repro.io.snapshot import load_snapshot, save_snapshot
from repro.sheet.workbook import Workbook

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "fixtures"))
import make_journal_v1 as golden  # noqa: E402

EXHAUSTIVE = os.environ.get("REPRO_JOURNAL_FUZZ", "") == "exhaustive"


def build_workbook() -> tuple[Workbook, RecalcEngine]:
    workbook = golden.build_workbook()
    engine = RecalcEngine(workbook["Main"])
    engine.recalculate_all()
    return workbook, engine


def sheet_values(workbook: Workbook) -> dict:
    return {pos: cell.value for pos, cell in workbook.active_sheet.items()}


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    """The golden snapshot + journal, each record's end offset, and the
    recorded state after every complete-record prefix."""
    with open(golden.EXPECTED, encoding="utf-8") as handle:
        expected = json.load(handle)
    with open(golden.JOURNAL, "rb") as handle:
        data = handle.read()
    return {
        "snapshot": golden.SNAPSHOT,
        "journal": golden.JOURNAL,
        "data": data,
        "boundaries": expected["record_ends"],     # the header's end first
        "states": expected["prefixes"],
        "workdir": str(tmp_path_factory.mktemp("crash")),
    }


def recover_truncated(scenario, cut: int, tag: str):
    path = os.path.join(scenario["workdir"], f"cut-{tag}.wal")
    with open(path, "wb") as handle:
        handle.write(scenario["data"][:cut])
    return recover(scenario["snapshot"], path)


def prefix_index(scenario, cut: int) -> int:
    """The boundary a cut at byte ``cut`` falls back to.  Edit records
    applied are one fewer: the first record is the ``open`` stamp."""
    return max(sum(1 for b in scenario["boundaries"] if b <= cut) - 1, 0)


def test_journal_has_one_record_per_step(scenario):
    read = read_journal(scenario["journal"])
    assert [record["kind"] for record in read.records] == (
        ["open"] + ["cell"] * 5 + ["batch", "structural", "structural", "cell"]
    )
    assert not read.torn and golden.record_ends(scenario["data"]) == scenario["boundaries"]


def test_full_replay_matches_live(scenario):
    result = recover(scenario["snapshot"], scenario["journal"])
    assert result.records_applied == len(scenario["boundaries"]) - 2
    assert not result.torn_tail
    assert golden.observed_state(result.workbook, result.graphs) == scenario["states"][-1]


def test_truncation_at_every_record_boundary(scenario):
    for i, cut in enumerate(scenario["boundaries"]):
        result = recover_truncated(scenario, cut, f"bound{i}")
        assert result.records_applied == max(i - 1, 0)
        assert not result.torn_tail
        assert golden.observed_state(result.workbook, result.graphs) == scenario["states"][i], \
            f"after {i} records ({cut} bytes)"


def test_truncation_mid_record_recovers_previous_prefix(scenario):
    boundaries = scenario["boundaries"]
    offsets = []
    for lo, hi in zip(boundaries, boundaries[1:]):
        if EXHAUSTIVE:
            offsets.extend(range(lo + 1, hi))
        else:
            rng = random.Random(lo)
            inner = range(lo + 1, hi)
            offsets.extend(sorted(rng.sample(inner, min(7, len(inner)))))
    for cut in offsets:
        result = recover_truncated(scenario, cut, f"mid{cut}")
        i = prefix_index(scenario, cut)
        assert result.torn_tail, f"cut at {cut} should read as torn"
        assert result.records_applied == max(i - 1, 0)
        assert golden.observed_state(result.workbook, result.graphs) == scenario["states"][i], \
            f"mid-record cut at byte {cut}"


def test_repeated_calls_write_the_same_bytes_but_one_spelling(scenario, tmp_path):
    """The one difference: a batch record's formula payload drops its
    leading ``=``, as a cell record's always did."""
    path = str(tmp_path / "again.wal")
    # The recorded prefixes (after the `open` stamp, then per call) are live states too.
    assert golden.journal_edits(scenario["snapshot"], path) == scenario["states"][1:]
    with open(path, "rb") as handle:
        again = handle.read()
    old, ends = scenario["data"], scenario["boundaries"]
    new_ends = golden.record_ends(again)
    old = [old[:12]] + [old[a:b] for a, b in zip(ends, ends[1:])]
    new = [again[:12]] + [again[a:b] for a, b in zip(new_ends, new_ends[1:])]
    assert len(new) == len(old)
    assert [i for i, (a, b) in enumerate(zip(old, new)) if a != b] == [7]
    # Record 7 is the batch; its frame (length, CRC) follows the payload.
    assert new[7][10:] == old[7][10:].replace(b'"formula","=A1*3"', b'"formula","A1*3"')


def test_corrupt_byte_cuts_at_last_complete_record(scenario):
    data = bytearray(scenario["data"])
    boundaries = scenario["boundaries"]
    # Corrupt a byte inside the 4th record's payload.
    target = (boundaries[3] + boundaries[4]) // 2
    data[target] ^= 0xFF
    path = os.path.join(scenario["workdir"], "corrupt.wal")
    with open(path, "wb") as handle:
        handle.write(bytes(data))
    result = recover(scenario["snapshot"], path)
    assert result.torn_tail
    assert result.records_applied == 2
    assert golden.observed_state(result.workbook, result.graphs) == scenario["states"][3]


def test_empty_and_missing_journal(scenario, tmp_path):
    empty = str(tmp_path / "empty.wal")
    Journal(empty).close()
    result = recover(scenario["snapshot"], empty)
    assert result.records_applied == 0 and not result.torn_tail
    assert golden.observed_state(result.workbook, result.graphs) == scenario["states"][0]

    result = recover(scenario["snapshot"], str(tmp_path / "missing.wal"))
    assert result.records_applied == 0
    # No journal at all is also fine.
    result = recover(scenario["snapshot"])
    assert result.records_applied == 0
    assert golden.observed_state(result.workbook, result.graphs) == scenario["states"][0]


def test_torn_header_reads_as_empty(scenario, tmp_path):
    path = str(tmp_path / "torn-header.wal")
    with open(path, "wb") as handle:
        handle.write(scenario["data"][:5])       # inside the magic
    read = read_journal(path)
    assert read.records == [] and read.torn


def test_unparseable_formula_rejected_before_any_mutation(scenario, tmp_path):
    """A journaled engine must fail *before* mutating when a formula
    cannot parse — a mid-edit failure would leave live state the journal
    never recorded."""
    from repro.formula.errors import FormulaSyntaxError

    result = recover(scenario["snapshot"], scenario["journal"])
    engine = result.engines["Main"]
    engine.journal = Journal(str(tmp_path / "badformula.wal"), truncate=True)
    before = sheet_values(result.workbook)
    with pytest.raises(FormulaSyntaxError):
        engine.set_formula("F5", "=SUM(")
    with pytest.raises(FormulaSyntaxError):
        with engine.begin_batch() as batch:
            batch.set_value("A1", 7.0)
            batch.set_formula("F6", "=1+")
    assert sheet_values(result.workbook) == before
    assert read_journal(engine.journal.path).records == []
    engine.journal.close()


def test_bogus_structural_op_in_record_rejected(scenario, tmp_path):
    """Op names come from file bytes: a CRC-valid record naming an unknown
    op raises JournalFormatError in every record shape — never dispatching
    a method, never replaying a mistyped cell op as a clear."""
    for bad in (
        {"kind": "structural", "sheet": "Main", "op": "commit",
         "index": 1, "count": 1, "cross_sheet": False},
        {"kind": "batch", "sheet": "Main", "cross_sheet": False,
         "structural": [["discard", 1, 1]], "clears": [], "ops": []},
        {"kind": "batch", "sheet": "Main", "cross_sheet": False,
         "structural": [], "clears": [], "ops": [[1, 1, "valu", 5.0]]},
        {"kind": "cell", "sheet": "Main", "op": "valu", "cell": [1, 1], "payload": 5.0},
    ):
        path = str(tmp_path / "bogus.wal")
        with Journal(path, truncate=True) as journal:
            journal.append(bad)
        with pytest.raises(JournalFormatError, match="unknown (structural|cell) op"):
            recover(scenario["snapshot"], path)


def test_empty_commit_appends_nothing(tmp_path):
    with Journal(str(tmp_path / "empty.wal"), truncate=True) as journal:
        with RecalcEngine(golden.build_workbook()["Main"], journal=journal).begin_batch():
            pass
        assert (journal.records_written, journal.edit_records) == (0, 0)


def test_mismatched_snapshot_journal_pair_rejected(scenario, tmp_path):
    """A journal opened for snapshot A must not replay onto snapshot B."""
    workbook, engine = build_workbook()
    other_snap = str(tmp_path / "other.snap")
    stats = save_snapshot(workbook, other_snap, {"Main": engine.graph})
    wal = str(tmp_path / "paired.wal")
    journal = Journal(wal, truncate=True, snapshot_id=stats.snapshot_id)
    engine.journal = journal
    engine.set_value("A1", 1.0)
    journal.close()

    # Right pair: replays (the `open` stamp is not counted as applied).
    result = recover(other_snap, wal)
    assert result.records_applied == 1
    # Wrong pair: the scenario snapshot has a different id.
    with pytest.raises(JournalFormatError, match="does not match"):
        recover(scenario["snapshot"], wal)


def test_reopen_with_different_snapshot_id_refused(scenario, tmp_path):
    """Reopening an existing journal under a new snapshot stamp must be
    refused up front — not discovered at restore time, after acked edits
    were appended behind the wrong pairing record."""
    wal = str(tmp_path / "stamped.wal")
    Journal(wal, truncate=True, snapshot_id="aaaa").close()
    with pytest.raises(JournalFormatError, match="truncate=True"):
        Journal(wal, snapshot_id="bbbb")
    # Same stamp, or no stamp, reopens fine.
    Journal(wal, snapshot_id="aaaa").close()
    Journal(wal).close()


def test_malformed_but_crc_valid_record_raises_cleanly(scenario, tmp_path):
    """A CRC-valid record missing required fields must surface as
    JournalFormatError, not a raw KeyError from half-way through replay."""
    for bad in (
        {"kind": "cell", "sheet": "Main", "op": "value"},        # no "cell"
        {"kind": "structural", "sheet": "Main", "op": "insert_rows"},
        {"kind": "batch", "sheet": "Main", "structural": [["insert_rows", 1]]},
        {"kind": "structural", "sheet": "Main", "op": "insert_rows",
         "index": 0, "count": 1},                                # invalid index
    ):
        path = str(tmp_path / "malformed.wal")
        journal = Journal(path, truncate=True)
        journal.append(bad)
        journal.close()
        with pytest.raises(JournalFormatError):
            recover(scenario["snapshot"], path)


def test_journal_exposes_preexisting_records(scenario, tmp_path):
    path = str(tmp_path / "pre.wal")
    journal = Journal(path, truncate=True)
    journal.append({"kind": "cell", "sheet": "Main", "op": "clear",
                    "cell": [1, 1]})
    journal.close()
    reopened = Journal(path)
    assert [r["kind"] for r in reopened.preexisting_records] == ["cell"]
    reopened.close()


def test_short_non_journal_file_is_not_clobbered(tmp_path):
    """A sub-header file that is not a header prefix is someone else's
    file: reading raises, and opening for append must not erase it."""
    path = str(tmp_path / "notes.txt")
    with open(path, "wb") as handle:
        handle.write(b"hi!")
    with pytest.raises(JournalFormatError):
        read_journal(path)
    with pytest.raises(JournalFormatError):
        Journal(path)
    assert open(path, "rb").read() == b"hi!"


def test_wrong_magic_and_future_version_raise(tmp_path):
    bad = str(tmp_path / "bad.wal")
    with open(bad, "wb") as handle:
        handle.write(b"NOTAJRNL" + (1).to_bytes(4, "little"))
    with pytest.raises(JournalFormatError, match="magic"):
        read_journal(bad)

    future = str(tmp_path / "future.wal")
    with open(future, "wb") as handle:
        handle.write(b"TACOJRN1" + (9).to_bytes(4, "little"))
    with pytest.raises(JournalFormatError) as err:
        read_journal(future)
    assert "9" in str(err.value) and "1" in str(err.value)
    # Appending to a future-version journal is refused the same way.
    with pytest.raises(JournalFormatError):
        Journal(future)


def test_reopen_after_torn_tail_cuts_then_appends(scenario, tmp_path):
    """Restart after a crash: opening the journal for appending must cut
    the torn tail first, or every post-restart record would sit behind
    garbage and be lost at the next recovery."""
    boundaries = scenario["boundaries"]
    path = str(tmp_path / "restart.wal")
    cut = (boundaries[2] + boundaries[3]) // 2      # tear record 3 mid-frame
    with open(path, "wb") as handle:
        handle.write(scenario["data"][:cut])

    # The restarted process recovers (2 complete records) and continues
    # editing against the recovered state, appending to the same journal.
    result = recover(scenario["snapshot"], path)
    assert result.records_applied == 1 and result.torn_tail
    engine = result.engines["Main"]
    engine.journal = Journal(path)                   # cuts the torn tail
    engine.set_value("A1", 555.0)
    engine.set_value("G9", 7.0)
    engine.journal.close()

    read = read_journal(path)
    assert not read.torn
    assert len(read.records) == 4                    # 2 old + 2 new
    final = recover(scenario["snapshot"], path)
    assert final.records_applied == 3                # the `open` stamp applies nothing
    assert final.workbook["Main"].get_value("A1") == 555.0
    assert final.workbook["Main"].get_value("G9") == 7.0


def test_reopen_after_torn_header_starts_fresh(scenario, tmp_path):
    path = str(tmp_path / "torn-header.wal")
    with open(path, "wb") as handle:
        handle.write(scenario["data"][:7])           # mid-magic
    journal = Journal(path)
    journal.append({"kind": "cell", "sheet": "Main", "op": "clear",
                    "cell": [9, 9]})
    journal.close()
    read = read_journal(path)
    assert not read.torn and len(read.records) == 1


def test_unrepresentable_value_rejected_before_any_mutation(scenario, tmp_path):
    """A journaled engine must refuse values the record format cannot
    carry *before* touching the sheet — otherwise memory and WAL diverge."""
    from repro.io.snapshot import SnapshotFormatError

    result = recover(scenario["snapshot"], scenario["journal"])
    engine = result.engines["Main"]
    engine.journal = Journal(str(tmp_path / "reject.wal"), truncate=True)
    before = sheet_values(result.workbook)
    with pytest.raises(SnapshotFormatError):
        engine.set_value("A1", object())
    with pytest.raises(SnapshotFormatError):
        with engine.begin_batch() as batch:
            batch.set_value("A1", 1.0)
            batch.set_value("A2", {"not": "a scalar"})
    assert sheet_values(result.workbook) == before
    assert read_journal(engine.journal.path).records == []
    engine.journal.close()


def test_journal_append_reopens(tmp_path):
    """Closing and reopening a journal appends, not truncates."""
    workbook, engine = build_workbook()
    snapshot = io.BytesIO()
    save_snapshot(workbook, snapshot, {"Main": engine.graph})
    path = str(tmp_path / "reopen.wal")
    engine.journal = Journal(path, truncate=True)
    engine.set_value("A1", 5.0)
    engine.journal.close()
    engine.journal = Journal(path)
    engine.set_value("A2", 6.0)
    engine.journal.close()
    snapshot.seek(0)
    result = recover(snapshot, path)
    assert result.records_applied == 2
    assert sheet_values(result.workbook) == sheet_values(workbook)


def test_a_fresh_stamped_journal_is_one_commit_of_the_same_bytes(scenario, tmp_path, monkeypatch):
    """The header and the ``open`` stamp reach the disk in one commit —
    one file fsync, then one of the directory — and are the bytes the
    golden journal starts with; recovery pairs the journal as before."""
    snapshot_id = load_snapshot(scenario["snapshot"]).meta["snapshot_id"]
    wal = str(tmp_path / "fresh.wal")
    synced = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd))[1])
    journal = Journal(wal, truncate=True, snapshot_id=snapshot_id)
    monkeypatch.undo()
    assert len(synced) == 2
    assert (journal.records_written, journal.edit_records) == (1, 0)
    journal.close()
    with open(wal, "rb") as handle:
        assert handle.read() == scenario["data"][: scenario["boundaries"][1]]
    assert read_journal(wal).records == [{"kind": "open", "snapshot": snapshot_id}]

    result = recover(scenario["snapshot"], wal)
    assert result.records_applied == 0
    assert sheet_values(result.workbook) == \
        sheet_values(load_snapshot(scenario["snapshot"]).workbook)
    with pytest.raises(JournalFormatError, match="does not match"):
        recover(io.BytesIO(_other_snapshot(tmp_path)), wal)


def _other_snapshot(tmp_path) -> bytes:
    workbook, engine = build_workbook()
    path = str(tmp_path / "other.snap")
    save_snapshot(workbook, path, {"Main": engine.graph})
    with open(path, "rb") as handle:
        return handle.read()

"""Smoke and unit tests of the perf ledger (tier-1: a few seconds).

The smoke half runs every workload's phases in this process at
``--smoke`` size — no child processes, a fraction of a second each — and
checks that exactly the declared names come out; it measures nothing.
"""

import json
import os
import re
import sys

import pytest

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, LEDGER_DIR)

from perfledger import diffing, single, spec, stats, tracing  # noqa: E402

REPO_ROOT = os.path.dirname(os.path.dirname(LEDGER_DIR))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- the contract document ----------------------------------------------------------

def test_benchmark_json_is_what_the_spec_implies():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        assert json.load(handle) == spec.manifest()


def test_declared_names_units_and_bounds_fit_the_contract():
    manifest = spec.manifest()
    names = [w["name"] for w in manifest["workloads"]]
    names += [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for m in manifest["end_to_end"] + manifest["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in manifest["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in manifest["end_to_end"])
    setup = next(m for m in manifest["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in manifest["end_to_end"])
    assert 2 <= len(manifest["workloads"]) <= 8 and len(manifest["per_layer"]) <= 128


# -- every workload, smoke size -----------------------------------------------------

@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
def test_smoke_run_emits_exactly_the_declared_names(workload, tmp_path):
    results = {}
    for traced in (False, True):
        workdir = tmp_path / ("traced" if traced else "reference")
        workdir.mkdir()
        setup = single.setup_phase(workload, 3, True, str(workdir))
        # A set-up's state travels between processes as JSON.
        state = json.loads(json.dumps(setup["state"]))
        results[traced] = single.measure_phase(
            workload, 3, 0.05, True, str(workdir), state, traced)
        assert results[traced]["failed"] == 0, results[traced]["notes"]
        assert results[traced]["attempted"] >= 1

    # Exactly the workload's own metrics: a pairing the workload does not
    # have is absent, not a zero.
    end_to_end = results[False]["metrics"]
    assert set(end_to_end) == {m.name for m in spec.end_to_end_for(workload)} - {"setup_s"}
    for name, entry in end_to_end.items():
        assert entry["value"] > 0 and entry["samples"] >= 1 and UNIT.match(entry["unit"]), name

    per_layer = single.per_layer_metrics(workload, results[False], results[True])
    assert list(per_layer) == [m.name for m in spec.per_layer_for(workload)]
    assert all(UNIT.match(entry["unit"]) for entry in per_layer.values())
    served = workload in spec.SERVE
    assert (per_layer["share.server"]["value"] > 0) == served
    assert (per_layer["share.engine.async_engine"]["value"] > 0) == served
    assert (per_layer["share.io.xlsx_reader"]["value"] > 0) == (workload == "open_edit")
    assert per_layer["trace.attributed_frac"]["value"] > 0.5
    if workload == "serve_resident":
        assert per_layer["server.evictions"]["value"] == 0
        assert per_layer["settle_share.engine.async_engine"]["value"] > 0
    if workload == "serve_churn":
        assert per_layer["server.readmissions"]["value"] > 0
        assert per_layer["readmit_share.io.snapshot"]["value"] > 0
    if workload == "bulk_maintain":
        assert per_layer["engine.shard.full_s"]["value"] > 0
        assert per_layer["engine.lookup.index_hits"]["value"] > 0

    # The contract line carries the names BENCHMARK.json declares, no more.
    run = {"correct": True, "attempted": 1, "failed": 0,
           "metrics": {"setup_s": {"value": single.setup_seconds([setup])}, **end_to_end}}
    line = single.contract_line(workload, run, trace=False)
    assert list(line["metrics"]) == [m.name for m in spec.END_TO_END]
    line = single.contract_line(workload, dict(run, metrics=per_layer), trace=True)
    assert list(line["metrics"]) == [m.name for m in spec.PER_LAYER]


# -- the percentile rule ------------------------------------------------------------

def test_a_percentile_needs_ten_samples_beyond_it():
    assert stats.supports(200, 95) and not stats.supports(199, 95)
    assert stats.supports(1000, 99) and not stats.supports(999, 99)
    assert stats.supports(20, 50) and not stats.supports(19, 50)


def test_percentile_interpolates_and_spread_is_iqr_over_median():
    assert stats.percentile([4, 1, 3, 2], 50) == 2.5
    assert stats.percentile([5], 95) == 5
    values = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
    q1, median, q3 = stats.quartiles(values)
    assert stats.spread(values) == pytest.approx((q3 - q1) / median)


# -- self time ----------------------------------------------------------------------

def _span(index, layer, start, end, parent=None, reported=False):
    return tracing.Span(index, layer, layer, start, end, parent, None, reported)


def test_self_time_is_duration_minus_children():
    spans = [
        _span(0, tracing.HARNESS, 0.0, 10.0),
        _span(1, "engine.batch", 1.0, 7.0, parent=0),
        _span(2, "core", 1.0, 3.0, parent=1, reported=True),
        _span(3, "engine.recalc", 1.0, 4.0, parent=1, reported=True),
        _span(4, tracing.UNTIMED, 7.0, 9.0, parent=0),
    ]
    own = tracing.self_times(spans)
    assert own == {0: 2.0, 1: 1.0, 2: 2.0, 3: 3.0, 4: 2.0}
    shares = tracing.layer_shares(spans, [0])
    # the untimed two seconds leave the wall: 8 s are shared out
    assert shares == {"harness": 0.25, "engine.batch": 0.125, "core": 0.25,
                      "engine.recalc": 0.375}
    assert tracing.layer_shares(spans, [1]) == {
        "engine.batch": pytest.approx(1 / 6), "core": pytest.approx(2 / 6),
        "engine.recalc": pytest.approx(3 / 6)}


def test_tracer_nests_by_stack_and_by_explicit_parent():
    tracer = tracing.Tracer()
    with tracer.span(tracing.HARNESS, "root") as root:
        with tracer.span("core", "inner") as inner:
            pass
        with tracer.span("server", "client op", parent=root) as op:
            with tracer.span("sheet", "stacked meanwhile") as other:
                pass
        child = tracer.reported_child(op, "engine.journal", "append", 0.5)
    spans = tracer.spans
    assert spans[inner].parent == root and spans[op].parent == root
    assert spans[other].parent == root  # not the unstacked client op
    assert spans[child].parent == op and spans[child].reported
    assert spans[child].seconds == 0.5


# -- diff verdicts ------------------------------------------------------------------

def _row(median, iqr=0.0, better="lower", bound=0.10):
    return {"median": median, "q1": median - iqr / 2, "q3": median + iqr / 2,
            "spread": iqr / median, "bound": bound, "better": better}


def test_diff_verdicts():
    assert diffing.verdict(_row(100), _row(100)) == "same"
    assert diffing.verdict(_row(100, 2), _row(105, 2)) == "same"       # within the bound
    assert diffing.verdict(_row(100, 2), _row(111, 2)) == "worse"      # beyond it
    assert diffing.verdict(_row(100, 2), _row(90, 2)) == "better"      # beyond the noise
    assert diffing.verdict(_row(100, 12), _row(90, 2)) == "unresolved"  # spread > bound
    assert diffing.verdict(_row(100, 2), _row(90, 12)) == "unresolved"
    higher = dict(better="higher")
    assert diffing.verdict(_row(100, 2, **higher), _row(88, 2, **higher)) == "worse"
    assert diffing.verdict(_row(100, 2, **higher), _row(110, 2, **higher)) == "better"


def test_diff_exit_code_follows_worse_and_failed_share(tmp_path, capsys):
    def document(median, failed=0):
        row = dict(_row(median, 1.0), unit="ms", values=[median])
        return {"workloads": {"w": {"ops_attempted": 100, "ops_failed": failed,
                                    "end_to_end": {"latency_ms": row}}}}

    paths = {}
    for name, doc in (("a", document(100)), ("same", document(101)),
                      ("worse", document(120)), ("failing", document(100, failed=3))):
        paths[name] = str(tmp_path / f"{name}.json")
        with open(paths[name], "w") as handle:
            json.dump(doc, handle)
    assert diffing.main([paths["a"], paths["same"]]) == 0
    assert diffing.main([paths["a"], paths["worse"]]) == 1
    assert diffing.main([paths["a"], paths["failing"]]) == 1
    assert "1.200x of A" in capsys.readouterr().out

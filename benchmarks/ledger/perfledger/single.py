"""One run of one workload: the contract's unit of measurement.

A run is a few child processes, one at a time: five set-ups
(``setup_s`` is :func:`setup_seconds` of them), then one measuring child that starts from the
last set-up's files — so ``peak_rss_mb``, the ``parse_formula`` cache and
the template registry belong to the measured session alone.  With
``trace`` the measuring child runs twice (spans off, then on; their
difference is the tracing overhead) and the traced child also runs the
layer probes.

The phases are plain functions (``setup_phase``, ``measure_phase``) so
tests can call them in-process; ``run.py --child`` wraps them.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

from . import pinned, spec
from .stats import percentile, supports

SETUP_REPS = 5
CHILD_TIMEOUT = 170  # the contract gives a run 180 s


# -- phases (in the child) ----------------------------------------------------------

def setup_phase(workload: str, seed: int, smoke: bool, workdir: str) -> dict:
    from . import desk, serve  # imports repro: only after pinned.apply()

    sizes = spec.sizes_for(workload, smoke)
    module = serve if workload in spec.SERVE else desk
    state, steps = module.setup(seed, sizes, workdir)
    return {"steps": steps, "state": state}


def setup_seconds(setups: list[dict]) -> float:
    """``setup_s`` of a run's set-ups: the steps' seconds summed, every
    step at its fastest repetition.  A neighbour on this shared box can
    only add time to a step, and does so for seconds on end: the median
    of whole set-ups moved by 30 % between two quarters of an hour
    (README, "Noise")."""
    return sum(min(s["steps"][name] for s in setups) for name in setups[0]["steps"])


def measure_phase(workload: str, seed: int, seconds: float, smoke: bool, workdir: str,
                  state: dict, traced: bool) -> dict:
    """Run the session once; traced, also reduce the spans and run the
    layer probes.  Returns a JSON-ready result."""
    from . import desk, layers, serve
    from .tracing import Tracer

    sizes = spec.sizes_for(workload, smoke, seconds)
    tracer = Tracer() if traced else None
    if workload in spec.SERVE:
        outcome = serve.run(state, seed, sizes, tracer,
                            scratch=os.path.join(workdir, "scratch"))
    else:
        outcome = desk.run(workload, state, seed, sizes, tracer)
    result = {
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": reduce_end_to_end(workload, outcome),
        "reported": outcome.reported,
        "timed_wall": outcome.timed_wall,
        "timed_ops": outcome.timed_ops,
        "notes": outcome.notes,
    }
    if traced:
        result["trace"] = reduce_trace(tracer, outcome)
        probe_dir = os.path.join(workdir, "probes")
        os.makedirs(probe_dir, exist_ok=True)
        workbook = (serve.probe_workbook(state, sizes) if workload in spec.SERVE
                    else desk.probe_workbook(state))
        result["probes"] = layers.run_probes(
            workbook, probe_dir, seed, arms=workload == "bulk_maintain")
    return result


# -- reducing an outcome ------------------------------------------------------------

def _entry(value: float, unit: str, samples: int, supported: bool = True) -> dict:
    return {"value": value, "unit": unit, "samples": samples, "supported": supported}


#: latency metric -> (sample kind, percentile)
_LATENCIES = {
    "edit_settle_ms_p50": ("settle", 50), "edit_settle_ms_p95": ("settle", 95),
    "write_ack_ms_p50": ("write", 50), "write_ack_ms_p95": ("write", 95),
    "read_ms_p50": ("read", 50), "read_ms_p95": ("read", 95),
    "paste_commit_ms_p50": ("paste", 50), "fill_commit_ms_p50": ("fill", 50),
    "structural_ms_p50": ("structural", 50), "readmit_ms_p50": ("readmit", 50),
}


def reduce_end_to_end(workload: str, outcome) -> dict:
    """Every end-to-end metric of ``workload`` but ``setup_s`` (the
    parent times the set-ups).  A percentile the sample count does not
    back is still computed, and marked unsupported."""
    out = {}
    for metric in spec.end_to_end_for(workload):
        name = metric.name
        if name in _LATENCIES:
            kind, q = _LATENCIES[name]
            data = outcome.samples[kind]
            # p50 is always reported; a higher percentile needs ten
            # samples beyond it.
            out[name] = _entry(percentile(data, q) * 1e3, "ms", len(data),
                               q == 50 or supports(len(data), q))
        elif name != "setup_s":
            kinds = {"open_s": ("open",), "full_recalc_cells_per_s": ("full_recalc",),
                     "ops_per_s": ("read", "write")}.get(name, ())
            out[name] = _entry(outcome.values[name], metric.unit,
                               sum(len(outcome.samples[kind]) for kind in kinds) or 1)
    return out


def reduce_trace(tracer, outcome) -> dict:
    """Layer shares of the timed section, of the settle probes and of
    the misses, plus the span list itself."""
    from .tracing import HARNESS, layer_shares

    spans = tracer.spans
    root = outcome.root_span
    # Concurrent clients overlap in wall time, so a served session's
    # shares are taken over its clients (client-perceived time); a desk
    # session is sequential and uses the root itself.
    clients = [s.index for s in spans if s.parent == root and s.layer == HARNESS]
    return {
        "shares": layer_shares(spans, clients or [root]),
        "settle_shares": layer_shares(spans, outcome.settle_spans),
        "readmit_shares": layer_shares(spans, outcome.miss_spans),
        "span_count": len(spans),
        "untimed_s": sum(s.seconds for s in spans if s.layer == "untimed"),
        "spans": [
            [s.index, s.name, s.layer, round(s.start, 7), round(s.end, 7), s.parent,
             s.request, s.reported]
            for s in spans
        ],
    }


def per_layer_metrics(workload: str, reference: dict, traced: dict) -> dict:
    """Every per-layer metric of ``workload``: probes, counts the
    sessions reported, and the traced session's shares."""
    values = dict(traced["probes"])
    values.update(traced["reported"])     # spatial.* and served cell counts exist only traced
    values.update(reference["reported"])  # else the unperturbed session's counts win
    trace = traced["trace"]
    # A layer without a span took none of the session's time: its share
    # is a measured zero.
    shares = trace["shares"]
    for layer in (*spec.LAYERS, "harness"):
        values[f"share.{layer}"] = shares.get(layer, 0.0)
    for key in ("settle_share", "readmit_share"):
        for metric in spec.PER_LAYER_NATIVE[workload]:
            prefix, _, layer = metric.name.partition(".")
            if prefix == key:
                values[metric.name] = trace[key + "s"].get(layer, 0.0)
    values["trace.attributed_frac"] = 1.0 - shares.get("harness", 0.0)
    untraced_per_op = reference["timed_wall"] / max(reference["timed_ops"], 1)
    traced_per_op = (traced["timed_wall"] - trace["untimed_s"]) / max(traced["timed_ops"], 1)
    values["trace.overhead_frac"] = traced_per_op / untraced_per_op - 1.0
    values["trace.spans"] = trace["span_count"]
    return {
        m.name: {"value": float(values[m.name]), "unit": m.unit}
        for m in spec.per_layer_for(workload)
    }


# -- the parent ---------------------------------------------------------------------

def _child(args: list[str], result_path: str) -> dict:
    """Run one child to completion and load what it wrote."""
    command = [sys.executable, os.path.join(pinned.LEDGER_DIR, "run.py"), "--child", *args,
               "--result", result_path]
    done = subprocess.run(command, timeout=CHILD_TIMEOUT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if done.returncode != 0 or not os.path.exists(result_path):
        raise RuntimeError(
            f"child {' '.join(args)} exited {done.returncode}\n{done.stdout}{done.stderr}")
    with open(result_path) as handle:
        return json.load(handle)


def run_once(workload: str, seed: int, seconds: float, *, trace: bool, smoke: bool) -> dict:
    """One contract run.  Returns ``{"attempted", "failed", "correct",
    "metrics", ...}`` where ``metrics`` holds the end-to-end metrics
    (``trace`` false) or the per-layer ones (``trace`` true)."""
    work_root = os.path.join(pinned.LEDGER_DIR, ".work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root)
    # A traced run measures two sessions (spans off, spans on): each
    # gets half the seconds, which scales its op counts down to floors.
    session_seconds = seconds / 2 if trace else seconds
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(session_seconds)]
    if smoke:
        common.append("--smoke")
    try:
        # A served session writes to its data directory, so each measuring
        # child gets a set-up of its own: the last one made.
        setups = []
        for i in range(2 if trace else SETUP_REPS):
            subdir = os.path.join(workdir, f"setup{i}")
            os.makedirs(subdir)
            setups.append(_child(["setup", *common, "--workdir", subdir],
                                 os.path.join(subdir, "setup.json")))

        def measure(setup_index: int, *extra: str) -> dict:
            state_path = os.path.join(workdir, f"setup{setup_index}", "setup.json")
            name = "traced.json" if extra else "measure.json"
            return _child(["measure", *common, "--workdir", workdir, "--state", state_path,
                           *extra], os.path.join(workdir, name))

        reference = measure(len(setups) - 1)
        result = {
            "workload": workload, "seed": seed, "seconds": seconds,
            "attempted": reference["attempted"], "failed": reference["failed"],
            "notes": reference["notes"],
            "failures": reference["notes"].pop("failures", []),
        }
        if not trace:
            result["metrics"] = {
                "setup_s": _entry(setup_seconds(setups), "s", len(setups)),
                **reference["metrics"],
            }
        else:
            traced = measure(0, "--traced")
            result["attempted"] += traced["attempted"]
            result["failed"] += traced["failed"]
            result["failures"] += traced["notes"].get("failures", [])
            result["metrics"] = per_layer_metrics(workload, reference, traced)
            result["shares"] = traced["trace"]["shares"]
            result["spans"] = traced["trace"]["spans"]
        result["correct"] = result["failed"] == 0
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def contract_line(workload: str, result: dict, trace: bool) -> dict:
    """Exactly what the contract's last line carries."""
    declared = spec.PER_LAYER if trace else spec.END_TO_END
    metrics = result["metrics"]
    missing = [m.name for m in declared if m.name not in metrics]
    if missing:
        raise RuntimeError(f"{workload} did not produce {', '.join(missing)}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m.name: {"value": metrics[m.name]["value"], "unit": m.unit} for m in declared
        },
    }

"""Repetitions, the human report and the JSON document."""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time

from . import pinned, single, spec
from .stats import quartiles, spread

OUT_DIR = os.path.join(pinned.LEDGER_DIR, "out")


def _format(value: float) -> str:
    if float(value).is_integer() or abs(value) >= 1000:
        return f"{value:,.0f}"
    if abs(value) >= 10:
        return f"{value:.2f}"
    return f"{value:.4g}"


def describe_run(result: dict, scrubbed: list[str], trace: bool) -> str:
    """The human table of one contract run."""
    lines = [
        f"workload {result['workload']}  seed {result['seed']}  "
        f"seconds {result['seconds']:g}  trace {int(trace)}",
        f"pinned: {json.dumps(pinned.EFFECTIVE_CONFIG, sort_keys=True)}",
        f"scrubbed from the environment: {', '.join(scrubbed) or 'nothing'}",
        f"sizes: {json.dumps(result['notes'], sort_keys=True, default=str)}",
    ]
    for name, entry in result["metrics"].items():
        note = ""
        if "samples" in entry:
            note = f"  n={entry['samples']}"
            if not entry.get("supported", True):
                note += "  (too few samples for this percentile)"
        lines.append(f"  {name:<44} {_format(entry['value']):>14} {entry['unit']}{note}")
    if trace:
        lines.append("layer shares of the timed wall (self time):")
        for layer, share in sorted(result["shares"].items(), key=lambda kv: -kv[1]):
            lines.append(f"  {layer:<44} {share:>13.1%}")
    lines.append(f"ops attempted {result['attempted']}  failed {result['failed']}")
    lines += [f"  FAILED {what}" for what in result.get("failures", [])]
    return "\n".join(lines)


def write_spans(result: dict) -> str:
    """Spans are kept in memory while the run is timed and written here."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{result['workload']}-{result['seed']}.json")
    with open(path, "w") as handle:
        json.dump({
            "columns": ["index", "name", "layer", "start", "end", "parent", "request",
                        "reported"],
            "spans": result["spans"],
        }, handle)
    return path


def _git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", pinned.REPO_ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def machine_info() -> dict:
    import numpy

    return {
        "machine": platform.machine(), "system": platform.platform(),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "git_sha": _git_sha(),
    }


def summarize(runs: list[dict], declared) -> dict:
    """Per metric: the runs' values, their median, quartiles and spread."""
    out = {}
    for metric in declared:
        entries = [run["metrics"][metric.name] for run in runs if metric.name in run["metrics"]]
        if not entries:
            continue
        values = [entry["value"] for entry in entries]
        q1, median, q3 = quartiles(values)
        out[metric.name] = {
            "unit": metric.unit, "better": metric.better, "bound": metric.bound,
            "values": values, "median": median, "q1": q1, "q3": q3,
            "spread": spread(values) if len(values) > 1 else None,
            "samples_per_run": [entry.get("samples") for entry in entries],
            "supported": all(entry.get("supported", True) for entry in entries),
        }
    return out


def _table(name: str, summary: dict) -> str:
    lines = [f"{name}", f"  {'metric':<44} {'median':>14} {'q1':>12} {'q3':>12} "
                        f"{'spread':>7} {'bound':>6}  n/run"]
    for metric, row in summary.items():
        spread_text = "-" if row["spread"] is None else f"{row['spread']:.1%}"
        bound_text = "-" if row["bound"] is None else f"{row['bound']:.0%}"
        samples = row["samples_per_run"][0]
        flag = "" if row["supported"] else " !"
        lines.append(
            f"  {metric:<44} {_format(row['median']):>14} {_format(row['q1']):>12} "
            f"{_format(row['q3']):>12} {spread_text:>7} {bound_text:>6}  "
            f"{'' if samples is None else samples}{flag} {row['unit']}")
    return "\n".join(lines)


def main(args, scrubbed: list[str]) -> int:
    workloads = [args.workload] if args.workload else list(spec.WORKLOADS)
    reps = args.reps or 1
    document = {
        **machine_info(), "seed": args.seed, "reps": reps, "seconds": args.seconds,
        "smoke": args.smoke, "config": pinned.EFFECTIVE_CONFIG, "scrubbed": scrubbed,
        "started": time.strftime("%Y-%m-%dT%H:%M:%S"), "workloads": {},
    }
    print(f"pinned: {json.dumps(pinned.EFFECTIVE_CONFIG, sort_keys=True)}")
    print(f"scrubbed from the environment: {', '.join(scrubbed) or 'nothing'}")
    failed = 0
    for workload in workloads:
        runs = []
        for rep in range(reps):
            # every rep on the same seed: the spread is the machine's alone
            run = single.run_once(workload, args.seed, args.seconds,
                                  trace=False, smoke=args.smoke)
            runs.append(run)
            print(f"{workload} rep {rep + 1}/{reps}: "
                  f"attempted {run['attempted']} failed {run['failed']}", file=sys.stderr)
        entry = {
            "why": spec.WORKLOADS[workload],
            "sizes": spec.sizes_for(workload, args.smoke, args.seconds),
            "notes": runs[-1]["notes"],
            "ops_attempted": sum(run["attempted"] for run in runs),
            "ops_failed": sum(run["failed"] for run in runs),
            "end_to_end": summarize(runs, spec.end_to_end_for(workload)),
        }
        print(_table(f"{workload} — end to end ({reps} runs)", entry["end_to_end"]))
        if args.trace:
            traced = single.run_once(workload, args.seed, args.seconds,
                                     trace=True, smoke=args.smoke)
            entry["per_layer"] = summarize([traced], spec.per_layer_for(workload))
            entry["shares"] = traced["shares"]
            entry["spans_file"] = write_spans(traced)
            entry["ops_attempted"] += traced["attempted"]
            entry["ops_failed"] += traced["failed"]
            print(_table(f"{workload} — per layer (traced pass)", entry["per_layer"]))
            print("  layer shares of the timed wall: " + ", ".join(
                f"{layer} {share:.1%}"
                for layer, share in sorted(traced["shares"].items(), key=lambda kv: -kv[1])))
        print(f"  ops attempted {entry['ops_attempted']}  failed {entry['ops_failed']}")
        failed += entry["ops_failed"]
        document["workloads"][workload] = entry
    os.makedirs(OUT_DIR, exist_ok=True)
    path = args.out or os.path.join(OUT_DIR, f"ledger-{time.strftime('%Y%m%d-%H%M%S')}.json")
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1)
    print(f"ledger document: {path}")
    return 1 if failed else 0

"""``run.py diff A.json B.json`` — compare two ledger documents.

One row per pairing of end-to-end metric and workload: both medians,
the ratio with its base, the bound and a verdict.  Per-layer rows
follow, informational.  Exits non-zero on any ``worse`` or when ``B``
failed a larger share of its ops.
"""

from __future__ import annotations

import json
import sys


def verdict(a: dict, b: dict) -> str:
    """``better`` / ``same`` / ``worse`` / ``unresolved`` for one pairing.

    ``a`` and ``b`` are summary rows (median, q1, q3, spread, bound,
    better).  Unresolved: either side's inter-quartile spread exceeds the
    bound, so the bound cannot be told from noise.  Worse: ``b``'s median
    is worse than ``a``'s by more than the bound.  Better: it is better
    by more than both sides' inter-quartile distances.
    """
    bound = a["bound"]
    if bound is not None:
        for side in (a, b):
            if side["spread"] is not None and side["spread"] > bound:
                return "unresolved"
    gain = a["median"] - b["median"] if a["better"] == "lower" else b["median"] - a["median"]
    if bound is not None and -gain > bound * abs(a["median"]):
        return "worse"
    noise = max(a["q3"] - a["q1"], b["q3"] - b["q1"])
    if gain > noise and gain > 0:
        return "better"
    return "same"


def _failed_share(entry: dict) -> float:
    return entry["ops_failed"] / max(entry["ops_attempted"], 1)


def compare(doc_a: dict, doc_b: dict) -> tuple[list[dict], list[dict], list[str]]:
    """(end-to-end rows, per-layer rows, failure notes)."""
    rows, layer_rows, notes = [], [], []
    for workload, entry_a in doc_a["workloads"].items():
        entry_b = doc_b["workloads"].get(workload)
        if entry_b is None:
            notes.append(f"{workload}: missing from B")
            continue
        if _failed_share(entry_b) > _failed_share(entry_a):
            notes.append(
                f"{workload}: failed share grew from {_failed_share(entry_a):.2%} "
                f"to {_failed_share(entry_b):.2%}")
        for section, target in (("end_to_end", rows), ("per_layer", layer_rows)):
            for metric, a in entry_a.get(section, {}).items():
                b = entry_b.get(section, {}).get(metric)
                if b is None:
                    continue
                target.append({
                    "workload": workload, "metric": metric, "unit": a["unit"],
                    "a": a["median"], "b": b["median"],
                    "ratio": b["median"] / a["median"] if a["median"] else None,
                    "bound": a["bound"],
                    "verdict": verdict(a, b) if section == "end_to_end" else "",
                })
    return rows, layer_rows, notes


def render(rows: list[dict], layer_rows: list[dict], notes: list[str]) -> str:
    def line(row: dict) -> str:
        ratio = "-" if row["ratio"] is None else f"{row['ratio']:.3f}x of A"
        bound = "-" if row["bound"] is None else f"{row['bound']:.0%}"
        return (f"  {row['workload']:<15} {row['metric']:<42} {row['a']:>14.5g} "
                f"{row['b']:>14.5g} {row['unit']:<8} {ratio:>14} {bound:>5}  {row['verdict']}")

    header = (f"  {'workload':<15} {'metric':<42} {'A median':>14} {'B median':>14} "
              f"{'unit':<8} {'B / A':>14} {'bound':>5}  verdict")
    out = ["end to end", header, *map(line, rows)]
    if layer_rows:
        out += ["per layer (informational)", header, *map(line, layer_rows)]
    out += notes
    return "\n".join(out)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: run.py diff A.json B.json", file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        with open(path) as handle:
            documents.append(json.load(handle))
    rows, layer_rows, notes = compare(*documents)
    print(render(rows, layer_rows, notes))
    worse = [row for row in rows if row["verdict"] == "worse"]
    return 1 if worse or notes else 0

#!/usr/bin/env python3
"""The perf ledger's one entry point.

Contract form (what the driver runs, from the root of a checkout)::

    python3 benchmarks/ledger/run.py --workload NAME --seed N --seconds S --trace 0|1

prints a human table and, as the last line of stdout, one JSON object
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Ledger form (no ``--workload``, or ``--reps``)::

    python3 benchmarks/ledger/run.py [--workload NAME] [--seed N] [--reps R]
                                     [--seconds S] [--trace] [--smoke] [--out FILE]

runs every chosen workload ``R`` times on seed ``N``, prints each
metric's median, quartiles and sample count, and writes one
JSON document.  ``run.py diff A.json B.json`` compares two documents;
``run.py manifest`` prints the ``BENCHMARK.json`` this code implies.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from perfledger import pinned, spec  # noqa: E402  (neither imports repro)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: checks the plumbing, measures nothing")
    parser.add_argument("--reps", type=int, help="ledger form: runs per workload")
    parser.add_argument("--out", help="ledger form: where to write the JSON document")
    # one phase of one run, in a process of its own (see perfledger.single)
    parser.add_argument("--child", choices=("setup", "measure"), help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--state", help=argparse.SUPPRESS)
    parser.add_argument("--result", help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    return parser


def _child(args) -> int:
    from perfledger import single

    if args.child == "setup":
        result = single.setup_phase(args.workload, args.seed, args.smoke, args.workdir)
    else:
        with open(args.state) as handle:
            state = json.load(handle)["state"]
        result = single.measure_phase(args.workload, args.seed, args.seconds, args.smoke,
                                      args.workdir, state, args.traced)
    with open(args.result, "w") as handle:
        json.dump(result, handle)
    return 0


def _contract(args, scrubbed: list[str]) -> int:
    from perfledger import ledger, single

    trace = bool(args.trace)
    result = single.run_once(args.workload, args.seed, args.seconds,
                             trace=trace, smoke=args.smoke)
    print(ledger.describe_run(result, scrubbed, trace))
    if trace:
        ledger.write_spans(result)
    print(json.dumps(single.contract_line(args.workload, result, trace)))
    return 0 if result["correct"] else 1


def main(argv: list[str]) -> int:
    if argv and argv[0] == "manifest":
        print(json.dumps(spec.manifest(), indent=2))
        return 0
    if argv and argv[0] == "diff":
        from perfledger import diffing

        return diffing.main(argv[1:])
    args = _parser().parse_args(argv)
    try:
        scrubbed = pinned.apply()
    except RuntimeError as exc:  # no source tree to measure, or repro already imported
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    if args.child:
        return _child(args)
    if args.workload and args.reps is None:
        return _contract(args, scrubbed)
    from perfledger import ledger

    return ledger.main(args, scrubbed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""The perf ledger: one benchmark for the paths a spreadsheet user feels.

``run.py`` (one directory up) is the only entry point.  The modules here
drive ``repro`` through its public functions only:

* :mod:`.pinned`   — scrubs ``REPRO_*`` and makes ``repro`` importable;
* :mod:`.spec`     — workloads, sizes, metric names, units, bounds;
* :mod:`.stats`    — the percentile rule, quartiles, spread;
* :mod:`.tracing`  — in-memory spans and self-time accounting;
* :mod:`.inputs`   — seeded input generators;
* :mod:`.oracle`   — rebuild-from-scratch and replay oracles;
* :mod:`.outcome`  — what one session measured;
* :mod:`.desk`, :mod:`.serve` — the single-user and the served sessions;
* :mod:`.layers`   — the per-layer probe suite of the traced pass;
* :mod:`.single`   — one contract run: its child processes and metrics;
* :mod:`.ledger`   — repetitions, the human report, the JSON document;
* :mod:`.diffing`  — ``run.py diff A.json B.json``.
"""

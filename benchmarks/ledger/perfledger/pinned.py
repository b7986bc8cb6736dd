"""Pinned configuration: nothing the environment says may change a run.

Every ``REPRO_*`` variable selects a store, a dispatch path or a size
somewhere in ``repro`` (several are read at import time), so they are
removed *before* ``repro`` is imported and listed in the output.  Sizes
travel as arguments, never through the environment.
"""

from __future__ import annotations

import os
import sys

LEDGER_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO_ROOT = os.path.dirname(os.path.dirname(LEDGER_DIR))
SRC_DIR = os.path.join(REPO_ROOT, "src")

#: What a run looks like once the environment has been scrubbed.  The
#: flush policy is part of it: the journal fsyncs every record and the
#: snapshot fsyncs before its rename, on both sides of any comparison.
EFFECTIVE_CONFIG = {
    "sheet_store": "columnar",
    "evaluation": "auto",
    "spatial_index": "rtree",
    "recalc_workers": 0,
    "recalc_shards": 0,
    "lookup_indexes": True,
    "journal_fsync": True,
    "service_step_cells": 256,
}


def apply() -> list[str]:
    """Scrub ``REPRO_*``, put ``src/`` on the path; returns what was scrubbed.

    Must run before the first ``import repro``.  Raises ``RuntimeError``
    when ``repro`` was already imported under a scrubbed variable (an
    import-time default such as the sheet store would have been taken
    from the environment) or when the source tree is missing.
    """
    scrubbed = sorted(name for name in os.environ if name.startswith("REPRO_"))
    if scrubbed and "repro" in sys.modules:
        raise RuntimeError(
            "repro was imported before the ledger scrubbed " + ", ".join(scrubbed)
        )
    for name in scrubbed:
        del os.environ[name]
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        raise RuntimeError(f"no repro package under {SRC_DIR}")
    if SRC_DIR not in sys.path:
        sys.path.insert(0, SRC_DIR)
    return scrubbed

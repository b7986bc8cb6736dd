"""Compatibility spelling of the resident runtime's pool teardown.

Every dispatch with ``workers=N`` or ``shards=N`` runs on the resident
runtime (:mod:`repro.engine.shard`); this module keeps the older import
path for callers that predate that (``benchmarks/ledger`` among them).
"""

from .shard import FAULT_ENV, shutdown_pools

__all__ = ["FAULT_ENV", "shutdown_pools"]

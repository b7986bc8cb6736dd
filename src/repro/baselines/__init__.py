"""Baselines: Antifreeze, RedisGraph-like, Excel-like, the per-cell object store."""

from .antifreeze import AntifreezeIndex, compress_ranges
from .cypher import CypherQuery, CypherSyntaxError, execute_query
from .excel_like import ExcelLikeEngine, to_r1c1
from .graphdb import GraphDB, RedisGraphLike
from .object_store import ObjectSheet, ObjectStore

__all__ = [
    "AntifreezeIndex",
    "CypherQuery",
    "CypherSyntaxError",
    "ExcelLikeEngine",
    "GraphDB",
    "ObjectSheet",
    "ObjectStore",
    "RedisGraphLike",
    "compress_ranges",
    "execute_query",
    "to_r1c1",
]

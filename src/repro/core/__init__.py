"""TACO core: patterns, compression, querying, and maintenance."""

from .compress import insert_dependency, insert_run, select_final_edge
from .export import summarize_graph, to_adjacency_json, to_dot
from .maintain import clear_cells, update_cell
from .optimal import OptimalResult, enumerate_valid_blocks, optimal_edge_count
from .paths import PathStep, explain_dependency
from .serialize import (
    GraphFormatError,
    dump_graph,
    dumps_graph,
    load_graph,
    loads_graph,
)
from .structural import delete_columns, delete_rows, insert_columns, insert_rows
from .patterns import (
    FF,
    FR,
    RF,
    RR,
    RR_CHAIN,
    RR_GAPONE,
    RR_INROW,
    SINGLE,
    CompressedEdge,
    Pattern,
    default_patterns,
    extended_patterns,
    inrow_patterns,
    pattern_by_name,
)
from .query import find_dependents, find_precedents
from .taco_graph import TacoGraph, build_from_sheet, dependencies_column_major

__all__ = [
    "CompressedEdge",
    "FF",
    "FR",
    "GraphFormatError",
    "OptimalResult",
    "PathStep",
    "Pattern",
    "RF",
    "RR",
    "RR_CHAIN",
    "RR_GAPONE",
    "RR_INROW",
    "SINGLE",
    "TacoGraph",
    "build_from_sheet",
    "clear_cells",
    "default_patterns",
    "delete_columns",
    "delete_rows",
    "dependencies_column_major",
    "dump_graph",
    "explain_dependency",
    "dumps_graph",
    "enumerate_valid_blocks",
    "extended_patterns",
    "find_dependents",
    "find_precedents",
    "inrow_patterns",
    "insert_columns",
    "insert_dependency",
    "insert_run",
    "insert_rows",
    "load_graph",
    "loads_graph",
    "optimal_edge_count",
    "pattern_by_name",
    "select_final_edge",
    "summarize_graph",
    "to_adjacency_json",
    "to_dot",
    "update_cell",
]

"""Formula language: tokenizer, parser, reference extraction, evaluation."""

from .ast_nodes import (
    BinaryOp,
    Boolean,
    CellNode,
    ErrorLiteral,
    FunctionCall,
    Node,
    Number,
    RangeNode,
    String,
    UnaryOp,
    walk,
)
from .errors import (
    CYCLE_ERROR,
    DIV0,
    NA_ERROR,
    NAME_ERROR,
    NUM_ERROR,
    REF_ERROR,
    VALUE_ERROR,
    ExcelError,
    FormulaSyntaxError,
)
from .compile import (
    CompiledTemplate,
    CompilingEvaluator,
    EvalStats,
    TemplateRegistry,
    WindowSpec,
    compile_template,
    default_registry,
)
from .evaluator import EvalContext, Evaluator
from .numeric import ExactSum, fsum_count
from .parser import parse_formula
from .r1c1 import to_r1c1
from .references import ReferencedRange, extract_references, references_of_formula
from .template import FormulaTemplate, intern_template
from .tokenizer import Token, TokenKind, tokenize
from .values import CellResolver, RangeValue

__all__ = [
    "BinaryOp",
    "Boolean",
    "CYCLE_ERROR",
    "CellNode",
    "CellResolver",
    "CompiledTemplate",
    "CompilingEvaluator",
    "DIV0",
    "ErrorLiteral",
    "EvalContext",
    "EvalStats",
    "Evaluator",
    "ExactSum",
    "ExcelError",
    "FormulaSyntaxError",
    "FormulaTemplate",
    "FunctionCall",
    "NA_ERROR",
    "NAME_ERROR",
    "NUM_ERROR",
    "Node",
    "Number",
    "REF_ERROR",
    "RangeNode",
    "RangeValue",
    "ReferencedRange",
    "String",
    "TemplateRegistry",
    "Token",
    "TokenKind",
    "UnaryOp",
    "VALUE_ERROR",
    "WindowSpec",
    "compile_template",
    "default_registry",
    "extract_references",
    "fsum_count",
    "intern_template",
    "parse_formula",
    "references_of_formula",
    "to_r1c1",
    "tokenize",
    "walk",
]

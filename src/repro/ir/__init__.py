"""MLIR/xDSL-style IR infrastructure.

Public surface: the core structures (:class:`Operation`, :class:`Block`,
:class:`Region`, :class:`SSAValue`), the attribute/type hierarchy, the
builder, printer/parser, verifier, rewrite driver, pass manager and the
reference interpreter.
"""

from repro.ir.attributes import (
    ArrayAttr,
    Attribute,
    BoolAttr,
    DenseArrayAttr,
    DictionaryAttr,
    FloatAttr,
    IntegerAttr,
    StringAttr,
    SymbolRefAttr,
    TypeAttr,
    UnitAttr,
    attr_from_python,
)
from repro.ir.builder import Builder, InsertPoint, build_region
from repro.ir.core import (
    Block,
    BlockArgument,
    Context,
    Dialect,
    IRError,
    Operation,
    OpResult,
    Region,
    SSAValue,
    UnregisteredOp,
    Use,
    default_context,
)
from repro.ir.interpreter import Interpreter, InterpreterError, Returned, Yielded, impl
from repro.ir.parser import ParseError, Parser, parse_module
from repro.ir.pass_manager import (
    Instrumentation,
    ModulePass,
    PassManager,
    PassOption,
    PassTrace,
    PipelineParseError,
    PipelineStage,
    get_pass_class,
    register_pass,
    registered_passes,
)
from repro.ir.printer import Printer, print_op
from repro.ir.rewriting import GreedyPatternRewriter, PatternRewriter, RewritePattern
from repro.ir.types import (
    DYNAMIC,
    FloatType,
    FunctionType,
    IndexType,
    IntegerType,
    MemRefType,
    NoneType,
    TypeAttribute,
    f32,
    f64,
    i1,
    i8,
    i32,
    i64,
    index,
    none,
)
from repro.ir.verifier import VerificationError, verify

__all__ = [
    "ArrayAttr", "Attribute", "BoolAttr", "DenseArrayAttr", "DictionaryAttr",
    "FloatAttr", "IntegerAttr", "StringAttr", "SymbolRefAttr", "TypeAttr",
    "UnitAttr", "attr_from_python",
    "Builder", "InsertPoint", "build_region",
    "Block", "BlockArgument", "Context", "Dialect", "IRError", "Operation",
    "OpResult", "Region", "SSAValue", "UnregisteredOp", "Use",
    "default_context",
    "Interpreter", "InterpreterError", "Returned", "Yielded", "impl",
    "ParseError", "Parser", "parse_module",
    "Instrumentation", "ModulePass", "PassManager", "PassOption",
    "PassTrace", "PipelineParseError", "PipelineStage",
    "get_pass_class", "register_pass", "registered_passes",
    "Printer", "print_op",
    "GreedyPatternRewriter", "PatternRewriter", "RewritePattern",
    "DYNAMIC", "FloatType", "FunctionType", "IndexType", "IntegerType",
    "MemRefType", "NoneType", "TypeAttribute",
    "f32", "f64", "i1", "i8", "i32", "i64", "index", "none",
    "VerificationError", "verify",
]

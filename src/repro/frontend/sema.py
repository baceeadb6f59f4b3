"""Semantic analysis: symbol tables, type checking, intrinsic resolution.

``implicit none`` semantics are enforced: every referenced name must be
declared (or be a dummy argument / intrinsic).  Parameter constants are
folded here so array extents and OpenMP clauses can use them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.frontend.ast_nodes import (
    ArrayRef,
    Assign,
    BinOp,
    CallStmt,
    CompilationUnit,
    DoLoop,
    Expr,
    IfBlock,
    IntLit,
    IntrinsicCall,
    LogicalLit,
    OmpTarget,
    OmpTargetData,
    OmpTargetEnterData,
    OmpTargetExitData,
    OmpTargetUpdate,
    PrintStmt,
    RealLit,
    StringLit,
    SubprogramUnit,
    TypeSpec,
    UnOp,
    VarRef,
)
from repro.dialects.arith import divsi
from repro.frontend.lexer import FortranSyntaxError


class SemanticError(FortranSyntaxError):
    """Raised on semantic violations (undeclared names, rank mismatch...)."""


#: Intrinsics the lowering understands.
INTRINSICS = {
    "mod", "min", "max", "abs", "sqrt", "real", "int", "dble", "float",
    "size", "exp", "log", "sin", "cos",
}


@dataclass
class Symbol:
    name: str
    type: TypeSpec
    dims: list[Expr] = field(default_factory=list)
    is_dummy: bool = False
    intent: Optional[str] = None
    is_parameter: bool = False
    param_value: Optional[int | float] = None

    @property
    def is_array(self) -> bool:
        return bool(self.dims)

    @property
    def rank(self) -> int:
        return len(self.dims)


@dataclass
class UnitInfo:
    unit: SubprogramUnit
    symbols: dict[str, Symbol] = field(default_factory=dict)

    def symbol(self, name: str, line: int = -1) -> Symbol:
        if name not in self.symbols:
            raise SemanticError(f"undeclared identifier {name!r}", line)
        return self.symbols[name]


@dataclass
class ProgramInfo:
    units: dict[str, UnitInfo] = field(default_factory=dict)

    def main(self) -> UnitInfo:
        for info in self.units.values():
            if info.unit.kind == "program":
                return info
        raise SemanticError("no program unit found", 1)


def _fold_const(expr: Expr, symbols: dict[str, Symbol]) -> Optional[int | float]:
    """Fold a compile-time constant expression (parameters + literals).

    Integer ``/`` truncates toward zero, as ``arith.divsi`` does at run
    time; a zero divisor raises ``ZeroDivisionError``."""
    if isinstance(expr, IntLit):
        return expr.value
    if isinstance(expr, RealLit):
        return expr.value
    if isinstance(expr, VarRef):
        sym = symbols.get(expr.name)
        if sym is not None and sym.is_parameter:
            return sym.param_value
        return None
    if isinstance(expr, UnOp) and expr.op == "-":
        value = _fold_const(expr.operand, symbols)
        return None if value is None else -value
    if isinstance(expr, BinOp):
        lhs = _fold_const(expr.lhs, symbols)
        rhs = _fold_const(expr.rhs, symbols)
        if lhs is None or rhs is None:
            return None
        ops = {
            "+": lambda a, b: a + b,
            "-": lambda a, b: a - b,
            "*": lambda a, b: a * b,
            "/": lambda a, b: divsi(a, b) if isinstance(a, int) and isinstance(b, int) else a / b,
            "**": lambda a, b: a**b,
        }
        if expr.op in ops:
            return ops[expr.op](lhs, rhs)
    return None


def _fold_const_at(
    expr: Expr, symbols: dict[str, Symbol], line: int, where: str
) -> Optional[int | float]:
    """:func:`_fold_const` for a declaration on ``line``: a constant
    division by zero is a :class:`SemanticError` there."""
    try:
        return _fold_const(expr, symbols)
    except ZeroDivisionError:
        raise SemanticError(f"division by zero in the {where}", line) from None


class Analyzer:
    def __init__(self, compilation_unit: CompilationUnit):
        self.cu = compilation_unit
        self.info = ProgramInfo()

    def analyze(self) -> ProgramInfo:
        for unit in self.cu.units:
            self.info.units[unit.name] = self._analyze_unit(unit)
        # Check call-site arity against callee signatures.
        for info in self.info.units.values():
            self._check_calls(info)
        return self.info

    # -- per-unit -------------------------------------------------------------------

    def _analyze_unit(self, unit: SubprogramUnit) -> UnitInfo:
        info = UnitInfo(unit=unit)
        declared: set[str] = set()
        for decl in unit.decls:
            if decl.name in declared:
                raise SemanticError(
                    f"duplicate declaration of {decl.name!r}", decl.line
                )
            declared.add(decl.name)
            sym = Symbol(
                name=decl.name,
                type=decl.type,
                dims=list(decl.dims),
                is_dummy=decl.name in unit.dummy_args,
                intent=decl.intent,
                is_parameter=decl.is_parameter,
            )
            if decl.is_parameter:
                if decl.init is None:
                    raise SemanticError(
                        f"parameter {decl.name!r} lacks an initializer",
                        decl.line,
                    )
                value = _fold_const_at(
                    decl.init, info.symbols, decl.line,
                    f"parameter {decl.name!r} initializer",
                )
                if value is None:
                    raise SemanticError(
                        f"parameter {decl.name!r} initializer is not constant",
                        decl.line,
                    )
                if decl.type.base == "integer":
                    value = int(value)
                sym.param_value = value
            info.symbols[decl.name] = sym
        for arg in unit.dummy_args:
            if arg not in info.symbols:
                raise SemanticError(
                    f"dummy argument {arg!r} of {unit.name!r} is not declared",
                    unit.line,
                )
        # Array extents must be constants or scalar integer dummies/locals.
        for decl in unit.decls:
            for dim in decl.dims:
                self._check_extent(dim, info, info.symbols[decl.name], decl.line)
        self._walk_stmts(unit.body, info)
        return info

    def _check_extent(
        self, dim: Expr, info: UnitInfo, sym: Symbol, line: int
    ) -> None:
        where = f"array extent of {sym.name!r}"
        if _fold_const_at(dim, info.symbols, line, where) is not None:
            return
        for ref in _collect_var_refs(dim):
            extent_sym = info.symbol(ref.name, ref.line)
            if extent_sym.is_array or extent_sym.type.base != "integer":
                raise SemanticError(
                    f"array extent of {sym.name!r} must be scalar integer",
                    ref.line,
                )

    # -- statement walk -----------------------------------------------------------------

    def _walk_stmts(self, stmts: list, info: UnitInfo) -> None:
        for stmt in stmts:
            self._walk_stmt(stmt, info)

    def _walk_stmt(self, stmt, info: UnitInfo) -> None:
        if isinstance(stmt, Assign):
            self._resolve_expr(stmt.target, info, is_target=True)
            stmt.value = self._resolve_expr(stmt.value, info)
            if isinstance(stmt.target, VarRef):
                sym = info.symbol(stmt.target.name, stmt.line)
                if sym.is_parameter:
                    raise SemanticError(
                        f"cannot assign to parameter {sym.name!r}", stmt.line
                    )
                if sym.is_array:
                    raise SemanticError(
                        "whole-array assignment is not supported "
                        f"({sym.name!r})",
                        stmt.line,
                    )
        elif isinstance(stmt, DoLoop):
            sym = info.symbol(stmt.var, stmt.line)
            if sym.type.base != "integer" or sym.is_array:
                raise SemanticError(
                    f"do variable {stmt.var!r} must be a scalar integer",
                    stmt.line,
                )
            stmt.start = self._resolve_expr(stmt.start, info)
            stmt.stop = self._resolve_expr(stmt.stop, info)
            if stmt.step is not None:
                stmt.step = self._resolve_expr(stmt.step, info)
            for part in ("start", "stop", "step"):
                bound = getattr(stmt, part)
                if bound is None:
                    continue
                base = expr_type(bound, info.symbols).base
                if base != "integer":
                    # loops lower to an index-typed scf.for
                    raise SemanticError(
                        f"do loop {part} must be an integer expression, "
                        f"got {base}",
                        stmt.line,
                    )
            if stmt.step is not None:
                try:
                    step = _fold_const(stmt.step, info.symbols)
                except ZeroDivisionError:
                    step = None  # raises where the division runs
                if isinstance(step, int) and step <= 0:
                    # loops lower to an exclusive-bound scf.for, which
                    # counts up only
                    raise SemanticError(
                        f"do loop step must be positive, got {step}",
                        stmt.line,
                    )
            self._walk_stmts(stmt.body, info)
        elif isinstance(stmt, IfBlock):
            stmt.conditions = [
                self._resolve_expr(c, info) for c in stmt.conditions
            ]
            for body in stmt.bodies:
                self._walk_stmts(body, info)
            self._walk_stmts(stmt.else_body, info)
        elif isinstance(stmt, CallStmt):
            # Whole arrays may be passed as actual arguments.
            stmt.args = [
                self._resolve_expr(a, info, is_target=True) for a in stmt.args
            ]
        elif isinstance(stmt, PrintStmt):
            stmt.items = [self._resolve_expr(item, info) for item in stmt.items]
        elif isinstance(stmt, (OmpTargetData, OmpTarget)):
            self._check_clause_vars(stmt, info)
            self._walk_stmts(stmt.body, info)
        elif isinstance(stmt, (OmpTargetEnterData, OmpTargetExitData)):
            self._check_clause_vars(stmt, info)
        elif isinstance(stmt, OmpTargetUpdate):
            for name in stmt.to_vars + stmt.from_vars:
                info.symbol(name, stmt.line)

    def _check_clause_vars(self, stmt, info: UnitInfo) -> None:
        clauses = stmt.clauses
        for map_clause in clauses.maps:
            for name in map_clause.vars:
                info.symbol(name, stmt.line)
        for red in clauses.reductions:
            for name in red.vars:
                sym = info.symbol(name, stmt.line)
                if sym.is_array:
                    raise SemanticError(
                        f"reduction variable {name!r} must be scalar",
                        stmt.line,
                    )

    # -- expressions -----------------------------------------------------------------------

    def _resolve_expr(self, expr: Expr, info: UnitInfo, is_target: bool = False) -> Expr:
        """Resolve names, fold intrinsic calls, type-check ranks.

        Returns a (possibly rewritten) expression: ArrayRef nodes whose name
        is an intrinsic become IntrinsicCall nodes.
        """
        if isinstance(expr, (IntLit, RealLit, LogicalLit, StringLit)):
            return expr
        if isinstance(expr, VarRef):
            sym = info.symbol(expr.name, expr.line)
            if sym.is_array and not is_target:
                raise SemanticError(
                    f"whole-array reference {expr.name!r} is not supported in "
                    "expressions",
                    expr.line,
                )
            return expr
        if isinstance(expr, ArrayRef):
            if expr.name not in info.symbols:
                if expr.name in INTRINSICS:
                    # size() takes a whole array; other intrinsics take
                    # scalar expressions.
                    allow_array = expr.name == "size"
                    call = IntrinsicCall(
                        line=expr.line,
                        name=expr.name,
                        args=[
                            self._resolve_expr(a, info, is_target=allow_array)
                            for a in expr.indices
                        ],
                    )
                    return call
                raise SemanticError(
                    f"undeclared identifier {expr.name!r}", expr.line
                )
            sym = info.symbols[expr.name]
            if not sym.is_array:
                raise SemanticError(
                    f"{expr.name!r} is not an array but is subscripted",
                    expr.line,
                )
            if len(expr.indices) != sym.rank:
                raise SemanticError(
                    f"{expr.name!r} has rank {sym.rank} but is subscripted "
                    f"with {len(expr.indices)} indices",
                    expr.line,
                )
            expr.indices = [self._resolve_expr(i, info) for i in expr.indices]
            return expr
        if isinstance(expr, UnOp):
            expr.operand = self._resolve_expr(expr.operand, info)
            return expr
        if isinstance(expr, BinOp):
            expr.lhs = self._resolve_expr(expr.lhs, info)
            expr.rhs = self._resolve_expr(expr.rhs, info)
            return expr
        if isinstance(expr, IntrinsicCall):
            expr.args = [self._resolve_expr(a, info) for a in expr.args]
            return expr
        raise SemanticError(
            f"unhandled expression node {type(expr).__name__}", expr.line
        )

    # -- inter-unit checks ------------------------------------------------------------------

    def _check_calls(self, info: UnitInfo) -> None:
        def walk(stmts: list) -> None:
            for stmt in stmts:
                if isinstance(stmt, CallStmt):
                    callee = self.info.units.get(stmt.name)
                    if callee is None:
                        raise SemanticError(
                            f"call to unknown subroutine {stmt.name!r}",
                            stmt.line,
                        )
                    expected = len(callee.unit.dummy_args)
                    if len(stmt.args) != expected:
                        raise SemanticError(
                            f"{stmt.name!r} expects {expected} arguments, "
                            f"got {len(stmt.args)}",
                            stmt.line,
                        )
                elif isinstance(stmt, DoLoop):
                    walk(stmt.body)
                elif isinstance(stmt, IfBlock):
                    for body in stmt.bodies:
                        walk(body)
                    walk(stmt.else_body)
                elif isinstance(stmt, (OmpTarget, OmpTargetData)):
                    walk(stmt.body)

        walk(info.unit.body)


def _collect_var_refs(expr: Expr) -> list[VarRef]:
    refs: list[VarRef] = []

    def visit(e: Expr) -> None:
        if isinstance(e, VarRef):
            refs.append(e)
        elif isinstance(e, ArrayRef):
            for i in e.indices:
                visit(i)
        elif isinstance(e, BinOp):
            visit(e.lhs)
            visit(e.rhs)
        elif isinstance(e, UnOp):
            visit(e.operand)
        elif isinstance(e, IntrinsicCall):
            for a in e.args:
                visit(a)

    visit(expr)
    return refs


def analyze(compilation_unit: CompilationUnit) -> ProgramInfo:
    """Run semantic analysis over a parsed compilation unit."""
    return Analyzer(compilation_unit).analyze()


def expr_type(expr: Expr, symbols: dict[str, Symbol]) -> TypeSpec:
    """Static type of an expression (integer/real with kind; logical)."""
    if isinstance(expr, IntLit):
        return TypeSpec("integer", 4)
    if isinstance(expr, RealLit):
        return TypeSpec("real", expr.kind)
    if isinstance(expr, LogicalLit):
        return TypeSpec("logical", 4)
    if isinstance(expr, VarRef):
        return symbols[expr.name].type
    if isinstance(expr, ArrayRef):
        return symbols[expr.name].type
    if isinstance(expr, UnOp):
        if expr.op == ".not.":
            return TypeSpec("logical", 4)
        return expr_type(expr.operand, symbols)
    if isinstance(expr, BinOp):
        if expr.op in ("==", "/=", "<", "<=", ">", ">=", ".and.", ".or."):
            return TypeSpec("logical", 4)
        lhs = expr_type(expr.lhs, symbols)
        rhs = expr_type(expr.rhs, symbols)
        if lhs.base == "real" or rhs.base == "real":
            kind = max(
                lhs.kind if lhs.base == "real" else 0,
                rhs.kind if rhs.base == "real" else 0,
            )
            return TypeSpec("real", max(kind, 4))
        return TypeSpec("integer", max(lhs.kind, rhs.kind))
    if isinstance(expr, IntrinsicCall):
        if expr.name in ("sqrt", "exp", "log", "sin", "cos"):
            return expr_type(expr.args[0], symbols)
        if expr.name == "abs":
            return expr_type(expr.args[0], symbols)
        if expr.name in ("real", "float"):
            return TypeSpec("real", 4)
        if expr.name == "dble":
            return TypeSpec("real", 8)
        if expr.name in ("int", "size", "mod"):
            if expr.name == "mod":
                return expr_type(expr.args[0], symbols)
            return TypeSpec("integer", 4)
        if expr.name in ("min", "max"):
            return expr_type(expr.args[0], symbols)
    raise SemanticError(
        f"cannot type expression {type(expr).__name__}", expr.line
    )

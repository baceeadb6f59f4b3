"""Arith dialect: constants, integer/float arithmetic, comparisons, casts."""

from __future__ import annotations

import math
from typing import Callable

from repro.ir.attributes import Attribute, FloatAttr, IntegerAttr, StringAttr
from repro.ir.core import Dialect, IRError, Operation, SSAValue
from repro.ir.interpreter import Interpreter, impl
from repro.ir.traits import ConstantLike, Pure
from repro.ir.types import (
    FloatType,
    IndexType,
    IntegerType,
    TypeAttribute,
    i1,
    index,
)
from repro.reliability.errors import DivisionByZeroError


class Constant(Operation):
    """``arith.constant`` — materializes an integer, index or float."""

    name = "arith.constant"
    traits = (ConstantLike, Pure)

    def __init__(self, value: Attribute, result_type: TypeAttribute):
        super().__init__(result_types=[result_type], attributes={"value": value})

    # -- convenience constructors -------------------------------------------

    @staticmethod
    def index(value: int) -> "Constant":
        return Constant(IntegerAttr.index(value), index)

    @staticmethod
    def int(value: int, width: int = 32) -> "Constant":
        return Constant(IntegerAttr(value, width), IntegerType(width))

    @staticmethod
    def bool(value: bool) -> "Constant":
        return Constant(IntegerAttr.i1(value), i1)

    @staticmethod
    def float(value: float, width: int = 64) -> "Constant":
        return Constant(FloatAttr(value, width), FloatType(width))

    @property
    def value(self) -> Attribute:
        return self.attributes["value"]

    @property
    def python_value(self) -> int | float:
        attr = self.value
        if isinstance(attr, IntegerAttr):
            return attr.value
        if isinstance(attr, FloatAttr):
            return attr.value
        raise IRError(f"arith.constant with non-numeric value {attr}")

    def verify_(self) -> None:
        attr = self.value
        ty = self.results[0].type
        if isinstance(ty, FloatType) and not isinstance(attr, FloatAttr):
            raise IRError("float constant requires a FloatAttr value")
        if isinstance(ty, (IntegerType, IndexType)) and not isinstance(
            attr, IntegerAttr
        ):
            raise IRError("integer constant requires an IntegerAttr value")


class _BinaryOp(Operation):
    """Shared base: two same-type operands, one result of that type."""

    def __init__(self, lhs: SSAValue, rhs: SSAValue, *, fastmath: str | None = None):
        attributes: dict[str, Attribute] = {}
        if fastmath:
            attributes["fastmath"] = StringAttr(fastmath)
        super().__init__(
            operands=[lhs, rhs],
            result_types=[lhs.type],
            attributes=attributes,
        )

    @property
    def lhs(self) -> SSAValue:
        return self.operands[0]

    @property
    def rhs(self) -> SSAValue:
        return self.operands[1]

    def verify_(self) -> None:
        # the type agreement is TYPE001 (repro.ir.verifier.typed_check_op)
        if len(self._operands) != 2 or len(self.results) != 1:
            raise IRError(
                f"{self.name}: expected two operands and one result, got "
                f"{len(self._operands)} and {len(self.results)}"
            )


class AddI(_BinaryOp):
    name = "arith.addi"
    traits = (Pure,)


class SubI(_BinaryOp):
    name = "arith.subi"
    traits = (Pure,)


class MulI(_BinaryOp):
    name = "arith.muli"
    traits = (Pure,)


class DivSI(_BinaryOp):
    name = "arith.divsi"
    traits = (Pure,)


class RemSI(_BinaryOp):
    name = "arith.remsi"
    traits = (Pure,)


class AndI(_BinaryOp):
    name = "arith.andi"
    traits = (Pure,)


class OrI(_BinaryOp):
    name = "arith.ori"
    traits = (Pure,)


class XOrI(_BinaryOp):
    name = "arith.xori"
    traits = (Pure,)


class MinSI(_BinaryOp):
    name = "arith.minsi"
    traits = (Pure,)


class MaxSI(_BinaryOp):
    name = "arith.maxsi"
    traits = (Pure,)


class AddF(_BinaryOp):
    name = "arith.addf"
    traits = (Pure,)


class SubF(_BinaryOp):
    name = "arith.subf"
    traits = (Pure,)


class MulF(_BinaryOp):
    name = "arith.mulf"
    traits = (Pure,)


class DivF(_BinaryOp):
    name = "arith.divf"
    traits = (Pure,)


class MinF(_BinaryOp):
    name = "arith.minimumf"
    traits = (Pure,)


class MaxF(_BinaryOp):
    name = "arith.maximumf"
    traits = (Pure,)


#: Comparison predicates shared by cmpi/cmpf (a useful common subset).
CMP_PREDICATES = ("eq", "ne", "slt", "sle", "sgt", "sge", "olt", "ole", "ogt", "oge")


class CmpI(Operation):
    """Integer comparison producing ``i1``."""

    name = "arith.cmpi"
    traits = (Pure,)

    def __init__(self, predicate: str, lhs: SSAValue, rhs: SSAValue):
        if predicate not in CMP_PREDICATES:
            raise IRError(f"bad cmpi predicate {predicate!r}")
        super().__init__(
            operands=[lhs, rhs],
            result_types=[i1],
            attributes={"predicate": StringAttr(predicate)},
        )

    @property
    def predicate(self) -> str:
        attr = self.attributes["predicate"]
        assert isinstance(attr, StringAttr)
        return attr.value


class CmpF(Operation):
    """Float comparison producing ``i1``."""

    name = "arith.cmpf"
    traits = (Pure,)

    def __init__(self, predicate: str, lhs: SSAValue, rhs: SSAValue):
        if predicate not in CMP_PREDICATES:
            raise IRError(f"bad cmpf predicate {predicate!r}")
        super().__init__(
            operands=[lhs, rhs],
            result_types=[i1],
            attributes={"predicate": StringAttr(predicate)},
        )

    @property
    def predicate(self) -> str:
        attr = self.attributes["predicate"]
        assert isinstance(attr, StringAttr)
        return attr.value


class Select(Operation):
    """``arith.select %cond, %true_value, %false_value``."""

    name = "arith.select"
    traits = (Pure,)

    def __init__(self, cond: SSAValue, true_value: SSAValue, false_value: SSAValue):
        super().__init__(
            operands=[cond, true_value, false_value],
            result_types=[true_value.type],
        )


class _CastOp(Operation):
    """Shared base for single-operand type casts."""

    def __init__(self, value: SSAValue, result_type: TypeAttribute):
        super().__init__(operands=[value], result_types=[result_type])

    @property
    def input(self) -> SSAValue:
        return self.operands[0]


class IndexCast(_CastOp):
    """int <-> index conversion."""

    name = "arith.index_cast"
    traits = (Pure,)


class SIToFP(_CastOp):
    name = "arith.sitofp"
    traits = (Pure,)


class FPToSI(_CastOp):
    name = "arith.fptosi"
    traits = (Pure,)


class ExtF(_CastOp):
    name = "arith.extf"
    traits = (Pure,)


class TruncF(_CastOp):
    name = "arith.truncf"
    traits = (Pure,)


class ExtSI(_CastOp):
    name = "arith.extsi"
    traits = (Pure,)


class TruncI(_CastOp):
    name = "arith.trunci"
    traits = (Pure,)


Arith = Dialect(
    "arith",
    [
        Constant, AddI, SubI, MulI, DivSI, RemSI, AndI, OrI, XOrI,
        MinSI, MaxSI, AddF, SubF, MulF, DivF, MinF, MaxF,
        CmpI, CmpF, Select, IndexCast, SIToFP, FPToSI, ExtF, TruncF,
        ExtSI, TruncI,
    ],
)


# -- interpreter implementations ---------------------------------------------------


@impl("arith.constant")
def _run_constant(interp: Interpreter, op: Operation, env: dict):
    attr = op.attributes["value"]
    if isinstance(attr, IntegerAttr):
        interp.set_results(op, env, [attr.value])
    elif isinstance(attr, FloatAttr):
        value = attr.value
        if attr.width == 32:
            import numpy as np

            value = float(np.float32(value))
        interp.set_results(op, env, [value])
    else:
        raise IRError(f"cannot interpret constant {attr}")
    return None


def _divisor(value, op_name: str):
    """``value``, unless it is zero: an integer division or remainder
    raises the typed error every engine tier raises for it."""
    if value == 0:
        raise DivisionByZeroError(f"{op_name}: integer division by zero")
    return value


def divsi(a: int, b: int) -> int:
    """Integer division truncating toward zero, as ``arith.divsi`` and
    Fortran's integer ``/`` define it; a zero ``b`` raises
    :class:`~repro.reliability.errors.DivisionByZeroError`."""
    return int(math.trunc(a / _divisor(b, "arith.divsi")))


def remsi(a: int, b: int) -> int:
    """The remainder of :func:`divsi` (sign of ``a``), as ``arith.remsi``."""
    return int(math.fmod(a, _divisor(b, "arith.remsi")))


#: Python expression per binop over its operands (``%s`` each, in order) —
#: the single source of truth of the interpreter impls (through
#: ``_BINOP_FNS``, made from it) and the block-JIT, which writes it
#: inline, so the two dispatch tiers cannot drift apart.
_BINOP_EXPRS: dict[str, str] = {
    "arith.addi": "%s + %s",
    "arith.subi": "%s - %s",
    "arith.muli": "%s * %s",
    "arith.divsi": "divsi(%s, %s)",
    "arith.remsi": "remsi(%s, %s)",
    "arith.andi": "%s & %s",
    "arith.ori": "%s | %s",
    "arith.xori": "%s ^ %s",
    "arith.minsi": "min(%s, %s)",
    "arith.maxsi": "max(%s, %s)",
    "arith.addf": "%s + %s",
    "arith.subf": "%s - %s",
    "arith.mulf": "%s * %s",
    "arith.divf": "%s / %s",
    "arith.minimumf": "min(%s, %s)",
    "arith.maximumf": "max(%s, %s)",
}

#: the functions binop expressions call, by the names they call them
_EXPR_HELPERS = {"divsi": divsi, "remsi": remsi}


def _function(expr: str) -> Callable:
    """The Python function of an expression over its ``%s`` operands."""
    names = ("a", "b")[: expr.count("%s")]
    return eval(f"lambda {', '.join(names)}: {expr % names}", dict(_EXPR_HELPERS))


#: Scalar combiner per binop, made from its expression.
_BINOP_FNS: dict[str, Callable] = {
    name: _function(expr) for name, expr in _BINOP_EXPRS.items()
}


def _register_binop(name: str, fn: Callable) -> None:
    @impl(name)
    def run(interp: Interpreter, op: Operation, env: dict, _fn=fn):
        lhs, rhs = interp.operand_values(op, env)
        result = _fn(lhs, rhs)
        ty = op.results[0].type
        if isinstance(ty, FloatType) and ty.width == 32:
            import numpy as np

            result = float(np.float32(result))
        interp.set_results(op, env, [result])
        return None


for _name, _fn in _BINOP_FNS.items():
    _register_binop(_name, _fn)

#: Python comparison operator per ``arith.cmpi``/``arith.cmpf`` predicate.
_CMP_OPS: dict[str, str] = {
    "eq": "==",
    "ne": "!=",
    "slt": "<",
    "sle": "<=",
    "sgt": ">",
    "sge": ">=",
    "olt": "<",
    "ole": "<=",
    "ogt": ">",
    "oge": ">=",
}
_CMP_EXPRS = {pred: f"bool(%s {sym} %s)" for pred, sym in _CMP_OPS.items()}
_CMP_FNS = {pred: _function(expr) for pred, expr in _CMP_EXPRS.items()}


def _run_cmp(interp: Interpreter, op: Operation, env: dict):
    predicate_attr = op.attributes["predicate"]
    assert isinstance(predicate_attr, StringAttr)
    lhs, rhs = interp.operand_values(op, env)
    interp.set_results(op, env, [_CMP_FNS[predicate_attr.value](lhs, rhs)])
    return None


impl("arith.cmpi")(_run_cmp)
impl("arith.cmpf")(_run_cmp)


@impl("arith.select")
def _run_select(interp: Interpreter, op: Operation, env: dict):
    cond, true_value, false_value = interp.operand_values(op, env)
    interp.set_results(op, env, [true_value if cond else false_value])
    return None


@impl("arith.index_cast")
def _run_index_cast(interp: Interpreter, op: Operation, env: dict):
    (value,) = interp.operand_values(op, env)
    interp.set_results(op, env, [int(value)])
    return None


impl("arith.extsi")(_run_index_cast)
impl("arith.trunci")(_run_index_cast)


@impl("arith.sitofp")
def _run_sitofp(interp: Interpreter, op: Operation, env: dict):
    (value,) = interp.operand_values(op, env)
    result = float(value)
    ty = op.results[0].type
    if isinstance(ty, FloatType) and ty.width == 32:
        import numpy as np

        result = float(np.float32(result))
    interp.set_results(op, env, [result])
    return None


@impl("arith.fptosi")
def _run_fptosi(interp: Interpreter, op: Operation, env: dict):
    (value,) = interp.operand_values(op, env)
    interp.set_results(op, env, [int(value)])
    return None


@impl("arith.extf")
def _run_extf(interp: Interpreter, op: Operation, env: dict):
    (value,) = interp.operand_values(op, env)
    interp.set_results(op, env, [float(value)])
    return None


@impl("arith.truncf")
def _run_truncf(interp: Interpreter, op: Operation, env: dict):
    import numpy as np

    (value,) = interp.operand_values(op, env)
    interp.set_results(op, env, [float(np.float32(value))])
    return None


# -- compiled-form emitters ---------------------------------------------------
#
# Statements mirroring the interpreter impls above bit-for-bit: the same
# expressions, the same float32 rounding points.  An op of literal
# operands is folded at compile time (transitively, since folded results
# become literals themselves).

from repro.ir.compile import CannotCompile, FnCodegen, compiled_for, helpers

helpers(**_EXPR_HELPERS)


@compiled_for("arith.constant")
def _emit_constant(op: Operation, gen: FnCodegen) -> None:
    attr = op.attributes["value"]
    if isinstance(attr, IntegerAttr):
        value = attr.value
    elif isinstance(attr, FloatAttr):
        value = attr.value
        if attr.width == 32:
            import numpy as np

            value = float(np.float32(value))
    else:
        raise CannotCompile("arith.constant with non-numeric value")
    gen.set_literal(op.results[0], value)


def _emit_expr(expr: str, fold: Callable | None = None):
    def emit(op: Operation, gen: FnCodegen) -> None:
        gen.assign(op, expr, fold)

    return emit


for _name, _expr in _BINOP_EXPRS.items():
    compiled_for(_name)(_emit_expr(_expr, _BINOP_FNS[_name]))


@compiled_for("arith.cmpi")
@compiled_for("arith.cmpf")
def _emit_cmp(op: Operation, gen: FnCodegen) -> None:
    predicate = op.attributes["predicate"].value
    gen.assign(op, _CMP_EXPRS[predicate], _CMP_FNS[predicate])


@compiled_for("arith.select")
def _emit_select(op: Operation, gen: FnCodegen) -> None:
    cond, true_value, false_value = map(gen.ref, op.operands)
    gen.emit(
        f"{gen.dest(op.results[0])} = {true_value} if {cond} else "
        f"{false_value}"
    )


for _name, _expr in (
    ("arith.index_cast", "int(%s)"),
    ("arith.extsi", "int(%s)"),
    ("arith.trunci", "int(%s)"),
    ("arith.fptosi", "int(%s)"),
    ("arith.extf", "float(%s)"),
    ("arith.truncf", "%s"),  # its f32 result is rounded
    ("arith.sitofp", "float(%s)"),
):
    compiled_for(_name)(_emit_expr(_expr, _function(_expr)))

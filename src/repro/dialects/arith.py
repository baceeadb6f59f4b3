"""Arith dialect: constants, integer/float arithmetic, comparisons, casts."""

from __future__ import annotations

import math
import operator
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


#: Scalar combiner per binop — the single source of truth shared by the
#: interpreter impls and the compiled-form emitters, so the two dispatch
#: tiers cannot drift apart.
_BINOP_FNS: dict[str, Callable] = {
    "arith.addi": operator.add,
    "arith.subi": operator.sub,
    "arith.muli": operator.mul,
    "arith.divsi": lambda a, b: int(math.trunc(a / _divisor(b, "arith.divsi"))),
    "arith.remsi": lambda a, b: int(math.fmod(a, _divisor(b, "arith.remsi"))),
    "arith.andi": operator.and_,
    "arith.ori": operator.or_,
    "arith.xori": operator.xor,
    "arith.minsi": min,
    "arith.maxsi": max,
    "arith.addf": operator.add,
    "arith.subf": operator.sub,
    "arith.mulf": operator.mul,
    "arith.divf": operator.truediv,
    "arith.minimumf": min,
    "arith.maximumf": max,
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

_CMP_FNS: dict[str, Callable] = {
    "eq": operator.eq,
    "ne": operator.ne,
    "slt": operator.lt,
    "sle": operator.le,
    "sgt": operator.gt,
    "sge": operator.ge,
    "olt": operator.lt,
    "ole": operator.le,
    "ogt": operator.gt,
    "oge": operator.ge,
}


def _run_cmp(interp: Interpreter, op: Operation, env: dict):
    predicate_attr = op.attributes["predicate"]
    assert isinstance(predicate_attr, StringAttr)
    lhs, rhs = interp.operand_values(op, env)
    interp.set_results(op, env, [bool(_CMP_FNS[predicate_attr.value](lhs, rhs))])
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
# Block-JIT closures mirroring the interpreter impls above bit-for-bit:
# same Python operator tables, same float32 rounding points.  Constant
# operands are folded at compile time (transitively, since folded results
# become literals themselves).

import numpy as _np

from repro.ir.compile import NOT_CONST, FnCompiler, compiled_for

_f32 = _np.float32


@compiled_for("arith.constant")
def _emit_constant(op: Operation, ctx: FnCompiler):
    from repro.ir.compile import CannotCompile

    attr = op.attributes["value"]
    if isinstance(attr, IntegerAttr):
        value = attr.value
    elif isinstance(attr, FloatAttr):
        value = float(_f32(attr.value)) if attr.width == 32 else attr.value
    else:
        raise CannotCompile("arith.constant with non-numeric value")
    ctx.set_literal(op.results[0], value)
    return None


def _emit_binop(fn: Callable):
    def emit(op: Operation, ctx: FnCompiler):
        result = op.results[0]
        ty = result.type
        round32 = isinstance(ty, FloatType) and ty.width == 32
        a, b = op.operands
        lit_a, lit_b = ctx.literal(a), ctx.literal(b)
        if lit_a is not NOT_CONST and lit_b is not NOT_CONST:
            try:
                value = fn(lit_a, lit_b)
            except (ArithmeticError, ValueError):
                value = NOT_CONST  # fold later, fail at run time as scalar
            if value is not NOT_CONST:
                if round32:
                    value = float(_f32(value))
                ctx.set_literal(result, value)
                return None
        ai, bi, ri = ctx.slot(a), ctx.slot(b), ctx.slot(result)
        if round32:
            def run(interp, frame, _fn=fn):
                frame[ri] = float(_f32(_fn(frame[ai], frame[bi])))
        else:
            def run(interp, frame, _fn=fn):
                frame[ri] = _fn(frame[ai], frame[bi])
        return run

    return emit


for _name, _fn in _BINOP_FNS.items():
    compiled_for(_name)(_emit_binop(_fn))


def _emit_cmp(op: Operation, ctx: FnCompiler):
    predicate_attr = op.attributes["predicate"]
    assert isinstance(predicate_attr, StringAttr)
    fn = _CMP_FNS[predicate_attr.value]
    a, b = op.operands
    result = op.results[0]
    lit_a, lit_b = ctx.literal(a), ctx.literal(b)
    if lit_a is not NOT_CONST and lit_b is not NOT_CONST:
        ctx.set_literal(result, bool(fn(lit_a, lit_b)))
        return None
    ai, bi, ri = ctx.slot(a), ctx.slot(b), ctx.slot(result)

    def run(interp, frame, _fn=fn):
        frame[ri] = bool(_fn(frame[ai], frame[bi]))
    return run


compiled_for("arith.cmpi")(_emit_cmp)
compiled_for("arith.cmpf")(_emit_cmp)


@compiled_for("arith.select")
def _emit_select(op: Operation, ctx: FnCompiler):
    ci, ti, fi = (ctx.slot(o) for o in op.operands)
    ri = ctx.slot(op.results[0])

    def run(interp, frame):
        frame[ri] = frame[ti] if frame[ci] else frame[fi]
    return run


def _emit_cast(convert: Callable):
    def emit(op: Operation, ctx: FnCompiler):
        source = op.operands[0]
        result = op.results[0]
        lit = ctx.literal(source)
        if lit is not NOT_CONST:
            ctx.set_literal(result, convert(lit))
            return None
        si, ri = ctx.slot(source), ctx.slot(result)

        def run(interp, frame, _convert=convert):
            frame[ri] = _convert(frame[si])
        return run

    return emit


for _name in ("arith.index_cast", "arith.extsi", "arith.trunci"):
    compiled_for(_name)(_emit_cast(int))
compiled_for("arith.fptosi")(_emit_cast(int))
compiled_for("arith.extf")(_emit_cast(float))
compiled_for("arith.truncf")(_emit_cast(lambda v: float(_f32(v))))


@compiled_for("arith.sitofp")
def _emit_sitofp(op: Operation, ctx: FnCompiler):
    ty = op.results[0].type
    if isinstance(ty, FloatType) and ty.width == 32:
        return _emit_cast(lambda v: float(_f32(float(v))))(op, ctx)
    return _emit_cast(float)(op, ctx)

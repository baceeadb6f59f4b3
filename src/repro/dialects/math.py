"""Math dialect: transcendental and misc scalar float functions."""

from __future__ import annotations

import math as _math

from repro.ir.core import Dialect, Operation, SSAValue
from repro.ir.interpreter import Interpreter, impl
from repro.ir.traits import Pure
from repro.ir.types import FloatType


class _UnaryFloatOp(Operation):
    def __init__(self, value: SSAValue):
        super().__init__(operands=[value], result_types=[value.type])


class Sqrt(_UnaryFloatOp):
    name = "math.sqrt"
    traits = (Pure,)


class Absf(_UnaryFloatOp):
    name = "math.absf"
    traits = (Pure,)


class Exp(_UnaryFloatOp):
    name = "math.exp"
    traits = (Pure,)


class Log(_UnaryFloatOp):
    name = "math.log"
    traits = (Pure,)


class Sin(_UnaryFloatOp):
    name = "math.sin"
    traits = (Pure,)


class Cos(_UnaryFloatOp):
    name = "math.cos"
    traits = (Pure,)


class Powf(Operation):
    name = "math.powf"
    traits = (Pure,)

    def __init__(self, base: SSAValue, exponent: SSAValue):
        super().__init__(operands=[base, exponent], result_types=[base.type])


Math = Dialect("math", [Sqrt, Absf, Exp, Log, Sin, Cos, Powf])


def _register_unary(name: str, fn) -> None:
    @impl(name)
    def run(interp: Interpreter, op: Operation, env: dict, _fn=fn):
        (value,) = interp.operand_values(op, env)
        result = _fn(value)
        ty = op.results[0].type
        if isinstance(ty, FloatType) and ty.width == 32:
            import numpy as np

            result = float(np.float32(result))
        interp.set_results(op, env, [result])
        return None


#: ``(op name, Python function)`` of each unary op
_UNARY_FNS = (
    ("math.sqrt", _math.sqrt),
    ("math.absf", abs),
    ("math.exp", _math.exp),
    ("math.log", _math.log),
    ("math.sin", _math.sin),
    ("math.cos", _math.cos),
)
for _name, _fn in _UNARY_FNS:
    _register_unary(_name, _fn)


@impl("math.powf")
def _run_powf(interp: Interpreter, op: Operation, env: dict):
    base, exponent = interp.operand_values(op, env)
    interp.set_results(op, env, [base**exponent])
    return None


# -- compiled-form emitters ---------------------------------------------------


from repro.ir.compile import FnCodegen, compiled_for, helpers

helpers(**{name.replace(".", "_"): fn for name, fn in _UNARY_FNS})


def _emit_unary(op: Operation, gen: FnCodegen) -> None:
    gen.assign(op, f"{op.name.replace('.', '_')}(%s)")


for _name, _ in _UNARY_FNS:
    compiled_for(_name)(_emit_unary)


@compiled_for("math.powf")
def _emit_powf(op: Operation, gen: FnCodegen) -> None:
    gen.assign(op, "%s ** %s", rounds=False)

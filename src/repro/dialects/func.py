"""Func dialect: functions, calls and returns."""

from __future__ import annotations

from typing import Sequence

from repro.ir.attributes import StringAttr, SymbolRefAttr, TypeAttr
from repro.ir.core import Block, Dialect, IRError, Operation, Region, SSAValue
from repro.ir.interpreter import Interpreter, Returned, impl
from repro.ir.traits import IsolatedFromAbove, IsTerminator, SymbolOp
from repro.ir.types import FunctionType, TypeAttribute


class FuncOp(Operation):
    """``func.func @name`` with a single-region body.

    A declaration (no body block) is represented by an empty region.
    """

    name = "func.func"
    traits = (IsolatedFromAbove, SymbolOp)

    def __init__(
        self,
        sym_name: str,
        function_type: FunctionType,
        *,
        visibility: str = "public",
    ):
        region = Region([Block(function_type.inputs)])
        super().__init__(
            regions=[region],
            attributes={
                "sym_name": StringAttr(sym_name),
                "function_type": TypeAttr(function_type),
                "sym_visibility": StringAttr(visibility),
            },
        )

    @property
    def sym_name(self) -> str:
        attr = self.attributes["sym_name"]
        assert isinstance(attr, StringAttr)
        return attr.value

    @property
    def function_type(self) -> FunctionType:
        attr = self.attributes["function_type"]
        assert isinstance(attr, TypeAttr)
        ft = attr.type
        assert isinstance(ft, FunctionType)
        return ft

    @property
    def body(self) -> Block:
        return self.regions[0].block

    def verify_(self) -> None:
        if not self.regions or not self.regions[0].blocks:
            return  # declaration
        body = self.regions[0].block
        expected = self.function_type.inputs
        got = tuple(a.type for a in body.args)
        if expected != got:
            raise IRError(
                f"func.func @{self.sym_name}: entry block args {got} do not "
                f"match signature {expected}"
            )


class ReturnOp(Operation):
    """``func.return`` terminator."""

    name = "func.return"
    traits = (IsTerminator,)

    def __init__(self, values: Sequence[SSAValue] = ()):
        super().__init__(operands=values)


class CallOp(Operation):
    """Direct call to a symbol."""

    name = "func.call"

    def __init__(
        self,
        callee: str,
        args: Sequence[SSAValue] = (),
        result_types: Sequence[TypeAttribute] = (),
    ):
        super().__init__(
            operands=args,
            result_types=result_types,
            attributes={"callee": SymbolRefAttr(callee)},
        )

    @property
    def callee(self) -> str:
        attr = self.attributes["callee"]
        assert isinstance(attr, SymbolRefAttr)
        return attr.symbol


Func = Dialect("func", [FuncOp, ReturnOp, CallOp])


# -- interpreter implementations ---------------------------------------------------


@impl("func.return")
def _run_return(interp: Interpreter, op: Operation, env: dict):
    return Returned(tuple(interp.operand_values(op, env)))


@impl("func.call")
def _run_call(interp: Interpreter, op: Operation, env: dict):
    callee = op.attributes["callee"]
    assert isinstance(callee, SymbolRefAttr)
    values = interp.call(callee.symbol, *interp.operand_values(op, env))
    interp.set_results(op, env, list(values))
    return None


@impl("func.func")
def _run_func(interp: Interpreter, op: Operation, env: dict):
    # A func.func encountered during block execution is a definition, not
    # an invocation: nothing to do.
    return None


@impl("builtin.module")
def _run_module(interp: Interpreter, op: Operation, env: dict):
    return None


# -- compiled-form emitters ---------------------------------------------------


from repro.ir.compile import FnCodegen, compiled_for


@compiled_for("func.call", counts_own_steps=True)
def _emit_call(op: Operation, gen: FnCodegen) -> None:
    callee = op.attributes["callee"]
    assert isinstance(callee, SymbolRefAttr)
    count = len(op.results)
    message = (
        f"func.call: implementation produced {{len(vals)}} values for "
        f"{count} results"
    )
    args = [gen.bind(callee.symbol, "callee"), *map(gen.ref, op.operands)]
    gen.emit(
        "interp.steps += 1",
        f"vals = interp.call({', '.join(args)})",
        f"if len(vals) != {count}:",
        f"    raise InterpreterError(f{message!r})",
    )
    if count:
        gen.emit(f"{''.join(f'{gen.dest(r)}, ' for r in op.results)}= vals")


@compiled_for("func.func")
def _emit_nested_func(op: Operation, gen: FnCodegen) -> None:
    # A definition encountered mid-block is a no-op, as in the interpreter.
    pass

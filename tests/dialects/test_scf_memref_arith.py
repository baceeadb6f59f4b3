"""Structural validation for scf/memref/arith op constructors."""

import pytest

from repro.dialects import arith, builtin, func, memref, scf
from repro.ir import (
    Block,
    Builder,
    Interpreter,
    InterpreterError,
    IRError,
    Operation,
    Region,
    UnregisteredOp,
    default_context,
    parse_module,
    verify,
)
from repro.ir.types import FunctionType, MemRefType, f32, i32, index
from repro.ir.verifier import typed_check_op


def _c(v):
    block = Block()
    return block.add_op(arith.Constant.index(v)).results[0]


class TestArithValidation:
    def test_binary_type_mismatch(self):
        block = Block()
        a = block.add_op(arith.Constant.index(1)).results[0]
        b = block.add_op(arith.Constant.int(1, 32)).results[0]
        op = arith.AddI(a, b)
        with pytest.raises(IRError, match=r"arith\.addi: \[TYPE001\]"):
            verify(op)

    @pytest.mark.parametrize(
        "form",
        [
            '%r = "arith.mulf"(%a) : (f32) -> (f32)',
            '%r = "arith.mulf"() : () -> (f32)',
            '"arith.addi"(%i, %i) : (i32, i32) -> ()',
            '%r = "arith.mulf"(%a, %a, %a) : (f32, f32, f32) -> (f32)',
        ],
        ids=["one-operand", "no-operand", "no-result", "three-operands"],
    )
    def test_binary_arity_fails_verify(self, form):
        """A binary op takes two operands and gives one result; another
        shape used to raise a bare IndexError, or to verify."""
        module = _parse_func(
            '      %a = "arith.constant"() <{value = 1.0 : f32}> : () -> (f32)\n'
            '      %i = "arith.constant"() <{value = 1 : i32}> : () -> (i32)\n'
            f"      {form}\n"
        )
        with pytest.raises(
            IRError, match=r"^arith\.\w+: expected two operands and one"
        ):
            verify(module)

    def test_bad_cmp_predicate(self):
        a, b = _c(1), _c(2)
        with pytest.raises(IRError, match="predicate"):
            arith.CmpI("weird", a, b)

    def test_constant_type_check(self):
        from repro.ir.attributes import FloatAttr

        op = arith.Constant(FloatAttr(1.0, 32), i32)
        with pytest.raises(IRError):
            op.verify_()

    def test_python_value(self):
        assert arith.Constant.index(5).python_value == 5
        assert arith.Constant.float(2.5, 32).python_value == 2.5

    def test_fastmath_attr(self):
        a, b = _c(1), _c(2)
        block = Block()
        fa = block.add_op(arith.Constant.float(1.0, 32)).results[0]
        fb = block.add_op(arith.Constant.float(2.0, 32)).results[0]
        op = arith.AddF(fa, fb, fastmath="contract")
        from repro.ir.attributes import StringAttr

        assert op.attributes["fastmath"] == StringAttr("contract")


class TestMemrefValidation:
    def test_load_rank_check(self):
        block = Block()
        buf = block.add_op(memref.Alloca(MemRefType(f32, [4, 4]))).results[0]
        idx = _c(0)
        with pytest.raises(IRError, match="rank"):
            memref.Load(buf, [idx])

    def test_store_rank_check(self):
        block = Block()
        buf = block.add_op(memref.Alloca(MemRefType(f32, [4]))).results[0]
        v = block.add_op(arith.Constant.float(0.0, 32)).results[0]
        with pytest.raises(IRError, match="rank"):
            memref.Store(v, buf, [])

    def test_load_requires_memref(self):
        with pytest.raises(IRError, match="memref"):
            memref.Load(_c(1), [])

    def test_alloc_dynamic_size_count(self):
        from repro.ir.types import DYNAMIC

        with pytest.raises(IRError, match="dynamic sizes"):
            memref.Alloc(MemRefType(f32, [DYNAMIC]), [])

    def test_cast_element_type_guard(self):
        block = Block()
        buf = block.add_op(memref.Alloca(MemRefType(f32, [4]))).results[0]
        with pytest.raises(IRError, match="element type"):
            memref.Cast(buf, MemRefType(i32, [4]))

    def test_cast_rank_guard(self):
        from repro.ir.types import DYNAMIC

        block = Block()
        buf = block.add_op(memref.Alloca(MemRefType(f32, [4]))).results[0]
        with pytest.raises(IRError, match="rank"):
            memref.Cast(buf, MemRefType(f32, [DYNAMIC, DYNAMIC]))


class TestScfValidation:
    def test_for_accessors(self):
        lb, ub, step = _c(0), _c(8), _c(1)
        loop = scf.For(lb, ub, step)
        assert loop.lb is lb and loop.ub is ub and loop.step is step
        assert loop.induction_var.type == index
        assert loop.operands == (lb, ub, step) and loop.results == []
        assert loop.body.args == [loop.induction_var]

    def test_for_verify_requires_yield_arity(self):
        lb, ub, step = _c(0), _c(8), _c(1)
        loop = scf.For(lb, ub, step)
        with pytest.raises(IRError, match="must end with scf.yield"):
            loop.verify_()
        loop.body.add_op(scf.Yield())
        loop.verify_()

    def test_if_blocks(self):
        block = Block()
        cond = block.add_op(arith.Constant.bool(True)).results[0]
        if_op = scf.If(cond)
        assert if_op.cond is cond
        assert if_op.then_block is not if_op.else_block


def _generic(cls, operands=(), result_types=(), regions=()):
    """``cls`` built through the generic :class:`Operation` constructor
    (as the IR parser builds ops), bypassing its typed ``__init__``."""
    op = object.__new__(cls)
    Operation.__init__(
        op, operands=operands, result_types=result_types, regions=regions
    )
    return op


def _parse_func(body: str):
    """Parse a module holding one ``() -> ()`` function ``f`` whose entry
    block holds the generic-form ops ``body`` and a return."""
    return parse_module(
        '"builtin.module"() ({\n'
        '  "func.func"() <{function_type = () -> (), sym_name = "f", '
        'sym_visibility = "public"}> ({\n'
        "    ^bb():\n"
        f"{body}"
        '      "func.return"() : () -> ()\n'
        "  }) : () -> ()\n"
        "}) : () -> ()\n"
    )


#: a carried ``scf.for`` value whose yield is also mistyped, written as
#: text (the parser builds ops generically, like a buggy rewrite would)
_PARSED_CARRIED_FOR = """\
      %0 = "arith.constant"() <{value = 0 : index}> : () -> (index)
      %1 = "arith.constant"() <{value = 1 : index}> : () -> (index)
      %2 = "arith.constant"() <{value = 4 : index}> : () -> (index)
      %3 = "arith.constant"() <{value = 1.0 : f32}> : () -> (f32)
      %4 = "scf.for"(%0, %2, %1, %3) <{loc = 9 : i64}> ({
        ^bb(%i: index, %acc: f32):
          %5 = "arith.constant"() <{value = 2.0 : f64}> : () -> (f64)
          "scf.yield"(%5) : (f64) -> ()
      }) : (index, index, index, f32) -> (f32)
"""


def _value_carrying(form):
    """A module holding one value-carrying ``scf`` form that is otherwise
    well formed: ``(module, the offending op, its rejection message)``."""
    if form == "parsed_carried_for":
        module = _parse_func(_PARSED_CARRIED_FOR)
        (op,) = [op for op in module.walk() if op.name == "scf.for"]
        return module, op, "takes lb, ub and step"
    module = builtin.ModuleOp()
    fn = func.FuncOp("f", FunctionType([], []))
    module.body.add_op(fn)
    b = Builder.at_end(fn.body)
    c0, c8, c1 = (
        b.insert(arith.Constant.index(v)).results[0] for v in (0, 8, 1)
    )
    cond = b.insert(arith.CmpI("slt", c0, c8)).results[0]
    if form == "for_fourth_operand":
        body = Block([index, index])
        body.add_op(scf.Yield())
        op = _generic(scf.For, [c0, c8, c1, c0], regions=[Region([body])])
        message = "takes lb, ub and step"
    elif form == "for_result":
        body = Block([index])
        body.add_op(_generic(scf.Yield, [body.args[0]]))
        op = _generic(scf.For, [c0, c8, c1], [index], [Region([body])])
        message = "has no results"
    elif form == "for_body_carried_arg":
        body = Block([index, index])
        body.add_op(scf.Yield())
        op = _generic(scf.For, [c0, c8, c1], regions=[Region([body])])
        message = "body takes the induction variable only"
    elif form == "if_result":
        branches = [Block(), Block()]
        for block in branches:
            block.add_op(scf.Yield())
        op = _generic(
            scf.If, [cond], [index], [Region([block]) for block in branches]
        )
        message = "scf.if has no results"
    else:  # yield_operand
        if_op = b.insert(scf.If(cond))
        op = _generic(scf.Yield, [c0])
        if_op.then_block.add_op(op)
        if_op.else_block.add_op(scf.Yield())
        message = "scf.yield carries no values"
    if op.parent is None:
        b.insert(op)
    b.insert(func.ReturnOp([]))
    return module, op, message


@pytest.mark.parametrize(
    "form",
    [
        "for_fourth_operand", "for_result", "for_body_carried_arg",
        "if_result", "yield_operand", "parsed_carried_for",
    ],
)
def test_value_carrying_forms_rejected(form):
    """Loop state lives in memory: ``scf`` ops carry no SSA values, and
    the structural verifier rejects each form that would.  A carried
    value is a structural error, not a type diagnostic: no typed rule
    fires, even on a mistyped yield."""
    module, op, message = _value_carrying(form)
    with pytest.raises(IRError) as info:
        verify(module)
    assert "[TYPE" not in str(info.value)
    with pytest.raises(IRError, match=message):
        op.verify_()
    assert all(typed_check_op(each) is None for each in module.walk())


@pytest.mark.parametrize("name", ["scf.while", "scf.condition", "scf.parallel"])
def test_value_carrying_ops_unregistered(name):
    """``scf`` registers no op whose regions pass values between
    iterations: a module naming one parses as an unregistered op and
    fails to run instead of running some other semantics."""
    assert default_context().get_op(name) is None
    module = _parse_func(f'      "{name}"() : () -> ()\n')
    (op,) = [op for op in module.walk() if isinstance(op, UnregisteredOp)]
    assert op.op_name == name
    with pytest.raises(InterpreterError, match="no interpreter impl"):
        Interpreter(module).call("f")

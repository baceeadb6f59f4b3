"""Interpreter semantics tests across core dialects."""

import numpy as np
import pytest

from repro.dialects import arith, builtin, func, math as math_d, memref, scf
from repro.ir import Builder, Interpreter, InterpreterError
from repro.ir.types import FunctionType, MemRefType, f32, f64, i32, index


def build_fn(arg_types, result_types, populate):
    """Helper: module with one function; populate(builder, args) -> values
    to return."""
    module = builtin.ModuleOp()
    fn = func.FuncOp("f", FunctionType(arg_types, result_types))
    module.body.add_op(fn)
    b = Builder.at_end(fn.body)
    results = populate(b, fn.body.args)
    b.insert(func.ReturnOp(results))
    return module


def call(module, *args):
    return Interpreter(module).call("f", *args)


class TestArith:
    def test_int_arith(self):
        def populate(b, args):
            x, y = args
            s = b.insert(arith.AddI(x, y)).results[0]
            d = b.insert(arith.SubI(s, y)).results[0]
            m = b.insert(arith.MulI(d, y)).results[0]
            return [m]

        module = build_fn([i32, i32], [i32], populate)
        assert call(module, 7, 3) == (21,)

    def test_divsi_truncates_toward_zero(self):
        def populate(b, args):
            return [b.insert(arith.DivSI(args[0], args[1])).results[0]]

        module = build_fn([i32, i32], [i32], populate)
        assert call(module, 7, 2) == (3,)
        assert call(module, -7, 2) == (-3,)  # trunc, not floor

    def test_float32_rounding(self):
        """f32 ops round to float32 precision like real hardware."""

        def populate(b, args):
            return [b.insert(arith.AddF(args[0], args[1])).results[0]]

        module = build_fn([f32, f32], [f32], populate)
        (result,) = call(module, np.float32(1e8), np.float32(1.0))
        assert result == np.float32(1e8)  # 1.0 lost in f32

    def test_cmp_and_select(self):
        def populate(b, args):
            cond = b.insert(arith.CmpI("slt", args[0], args[1])).results[0]
            return [b.insert(arith.Select(cond, args[0], args[1])).results[0]]

        module = build_fn([i32, i32], [i32], populate)
        assert call(module, 2, 9) == (2,)
        assert call(module, 9, 2) == (2,)

    def test_casts(self):
        def populate(b, args):
            as_float = b.insert(arith.SIToFP(args[0], f64)).results[0]
            back = b.insert(arith.FPToSI(as_float, i32)).results[0]
            return [back]

        module = build_fn([i32], [i32], populate)
        assert call(module, -42) == (-42,)

    def test_minmax(self):
        def populate(b, args):
            lo = b.insert(arith.MinSI(args[0], args[1])).results[0]
            hi = b.insert(arith.MaxSI(args[0], args[1])).results[0]
            return [lo, hi]

        module = build_fn([i32, i32], [i32, i32], populate)
        assert call(module, 4, -4) == (-4, 4)


class TestMath:
    @pytest.mark.parametrize(
        "cls,arg,expected",
        [
            (math_d.Sqrt, 9.0, 3.0),
            (math_d.Absf, -2.5, 2.5),
            (math_d.Exp, 0.0, 1.0),
            (math_d.Log, 1.0, 0.0),
        ],
    )
    def test_unary(self, cls, arg, expected):
        def populate(b, args):
            return [b.insert(cls(args[0])).results[0]]

        module = build_fn([f64], [f64], populate)
        assert call(module, arg) == (pytest.approx(expected),)

    def test_powf(self):
        def populate(b, args):
            return [b.insert(math_d.Powf(args[0], args[1])).results[0]]

        module = build_fn([f64, f64], [f64], populate)
        assert call(module, 2.0, 10.0) == (pytest.approx(1024.0),)


#: the scalar walk, the closure-compiled tier, and the vectorized default
TIERS = (
    {"compiled": False, "vectorize": False},
    {"compiled": True, "vectorize": False},
    {},
)


class TestScf:
    def test_for_accumulates_through_memory(self):
        """sum 0..99 via a rank-0 accumulator cell: loop state lives in
        memory, and every tier agrees on the value and the steps."""

        def populate(b, args):
            cell = b.insert(memref.Alloca(MemRefType(index, []))).results[0]
            zero = b.insert(arith.Constant.index(0)).results[0]
            b.insert(memref.Store(zero, cell, []))
            ub = b.insert(arith.Constant.index(100)).results[0]
            step = b.insert(arith.Constant.index(1)).results[0]
            loop = b.insert(scf.For(zero, ub, step))
            inner = Builder.at_end(loop.body)
            acc = inner.insert(memref.Load(cell, [])).results[0]
            new = inner.insert(arith.AddI(acc, loop.induction_var)).results[0]
            inner.insert(memref.Store(new, cell, []))
            inner.insert(scf.Yield())
            return [b.insert(memref.Load(cell, [])).results[0]]

        module = build_fn([], [index], populate)
        runs = []
        for tier in TIERS:
            interp = Interpreter(module, **tier)
            runs.append((interp.call("f"), interp.steps))
        assert runs[0][0] == (4950,)
        assert runs[1:] == runs[:1] * 2

    def test_if_stores_selected_branch(self):
        """max(a, b) through ``scf.if`` branches that store into a cell."""

        def populate(b, args):
            cell = b.insert(memref.Alloca(MemRefType(i32, []))).results[0]
            cond = b.insert(arith.CmpI("sgt", args[0], args[1])).results[0]
            if_op = b.insert(scf.If(cond))
            for block, value in (
                (if_op.then_block, args[0]), (if_op.else_block, args[1]),
            ):
                branch = Builder.at_end(block)
                branch.insert(memref.Store(value, cell, []))
                branch.insert(scf.Yield())
            return [b.insert(memref.Load(cell, [])).results[0]]

        module = build_fn([i32, i32], [i32], populate)
        for tier in TIERS:
            interp = Interpreter(module, **tier)
            assert interp.call("f", 3, 8) == (8,)
            assert interp.call("f", 9, 1) == (9,)

    def test_empty_trip_count(self):
        def populate(b, args):
            lb = b.insert(arith.Constant.index(5)).results[0]
            ub = b.insert(arith.Constant.index(5)).results[0]
            step = b.insert(arith.Constant.index(1)).results[0]
            loop = b.insert(scf.For(lb, ub, step))
            Builder.at_end(loop.body).insert(scf.Yield())
            return []

        module = build_fn([], [], populate)
        call(module)  # must not loop


class TestMemref:
    def test_alloc_load_store(self):
        def populate(b, args):
            buf = b.insert(memref.Alloca(MemRefType(f32, [4]))).results[0]
            idx = b.insert(arith.Constant.index(2)).results[0]
            val = b.insert(arith.Constant.float(6.5, 32)).results[0]
            b.insert(memref.Store(val, buf, [idx]))
            return [b.insert(memref.Load(buf, [idx])).results[0]]

        module = build_fn([], [f32], populate)
        assert call(module) == (pytest.approx(6.5),)

    def test_rank0(self):
        def populate(b, args):
            cell = b.insert(memref.Alloca(MemRefType(i32, []))).results[0]
            v = b.insert(arith.Constant.int(11, 32)).results[0]
            b.insert(memref.Store(v, cell, []))
            return [b.insert(memref.Load(cell, [])).results[0]]

        module = build_fn([], [i32], populate)
        assert call(module) == (11,)

    def test_dim_and_copy(self):
        def populate(b, args):
            (src,) = args
            zero = b.insert(arith.Constant.index(0)).results[0]
            dim = b.insert(memref.Dim(src, zero)).results[0]
            dst = b.insert(memref.Alloca(MemRefType(f32, [3]))).results[0]
            b.insert(memref.Copy(src, dst))
            idx = b.insert(arith.Constant.index(1)).results[0]
            val = b.insert(memref.Load(dst, [idx])).results[0]
            return [dim, val]

        module = build_fn([MemRefType(f32, [3])], [index, f32], populate)
        dim, val = call(module, np.array([1.0, 2.0, 3.0], dtype=np.float32))
        assert dim == 3 and val == pytest.approx(2.0)

    def test_dma_copies(self):
        def populate(b, args):
            src, dst = args
            tag = b.insert(memref.DmaStart(src, dst)).results[0]
            b.insert(memref.DmaWait(tag))
            return []

        module = build_fn(
            [MemRefType(f32, [4]), MemRefType(f32, [4], 1)], [], populate
        )
        src = np.arange(4, dtype=np.float32)
        dst = np.zeros(4, dtype=np.float32)
        call(module, src, dst)
        assert np.allclose(dst, src)


class TestFunctions:
    def test_call_chain(self):
        module = builtin.ModuleOp()
        callee = func.FuncOp("double", FunctionType([i32], [i32]))
        module.body.add_op(callee)
        cb = Builder.at_end(callee.body)
        doubled = cb.insert(
            arith.AddI(callee.body.args[0], callee.body.args[0])
        ).results[0]
        cb.insert(func.ReturnOp([doubled]))
        caller = func.FuncOp("f", FunctionType([i32], [i32]))
        module.body.add_op(caller)
        b = Builder.at_end(caller.body)
        r = b.insert(func.CallOp("double", [caller.body.args[0]], [i32]))
        b.insert(func.ReturnOp([r.results[0]]))
        assert Interpreter(module).call("f", 21) == (42,)

    def test_missing_function(self):
        module = builtin.ModuleOp()
        with pytest.raises(InterpreterError, match="no function"):
            Interpreter(module).call("ghost")

    def test_fresh_executors_share_the_function_table(self, monkeypatch):
        """A run builds a host interpreter and a kernel runner's
        interpreter, each needing its module's ``{sym_name: func.func}``
        table.  The table lives in the module's analysis cache, so a
        second executor of one program walks neither module again; the
        cache is dropped with the module's other analyses."""
        from repro.ir.core import Operation, invalidate_analysis
        from repro.ir.interpreter import function_table
        from repro.workloads import get_workload

        workload = get_workload("saxpy")
        program = workload.compile()

        def run():
            instance = workload.instance(workload.smoke_size, 1)
            program.executor().run(workload.entry, *instance.args)

        run()
        walked = []
        real_walk = Operation.walk

        def walk(self, *args, **kwargs):
            if self.parent_op is None:
                walked.append(self.name)
            return real_walk(self, *args, **kwargs)

        monkeypatch.setattr(Operation, "walk", walk)
        run()
        assert walked == []
        table = function_table(program.device_module)
        assert function_table(program.device_module) is table
        invalidate_analysis(program.device_module)
        assert function_table(program.device_module) is not table
        assert walked == ["builtin.module"]

    def test_wrong_arity(self, vadd_module):
        with pytest.raises(InterpreterError, match="arguments"):
            Interpreter(vadd_module).call("vadd", np.zeros(16, np.float32))

    def test_missing_impl(self):
        from repro.ir.core import UnregisteredOp

        module = builtin.ModuleOp()
        fn = func.FuncOp("f", FunctionType([], []))
        module.body.add_op(fn)
        fn.body.add_op(UnregisteredOp("mystery.op"))
        fn.body.add_op(func.ReturnOp())
        with pytest.raises(InterpreterError, match="no interpreter impl"):
            Interpreter(module).call("f")

    def test_step_limit(self, vadd_module):
        interp = Interpreter(vadd_module, max_steps=10)
        with pytest.raises(InterpreterError, match="step limit"):
            interp.call(
                "vadd",
                np.zeros(16, np.float32),
                np.zeros(16, np.float32),
            )

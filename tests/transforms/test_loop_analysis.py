"""Dependence analysis / II computation tests."""


from repro.dialects import arith, builtin, func, memref, scf
from repro.ir import Builder
from repro.ir.types import FunctionType, MemRefType, f32, index
from repro.transforms.loop_analysis import (
    DEFAULT_LATENCIES,
    classify_index,
    const_int,
    float_chain_latency,
    loop_carried_dependences,
    min_initiation_interval,
    trip_count,
)


def _loop_skeleton(arg_types):
    module = builtin.ModuleOp()
    fn = func.FuncOp("f", FunctionType(list(arg_types), []))
    module.body.add_op(fn)
    b = Builder.at_end(fn.body)
    lb = b.insert(arith.Constant.index(0)).results[0]
    ub = b.insert(arith.Constant.index(100)).results[0]
    step = b.insert(arith.Constant.index(1)).results[0]
    loop = b.insert(scf.For(lb, ub, step))
    b.insert(func.ReturnOp())
    return module, fn, loop, Builder.at_end(loop.body)


class TestClassifyIndex:
    def test_iv_itself(self):
        _, _, loop, inner = _loop_skeleton([])
        iv = loop.induction_var
        assert classify_index(iv, iv).kind == "affine"
        assert classify_index(iv, iv).parameter == 1

    def test_affine_offset(self):
        _, _, loop, inner = _loop_skeleton([])
        one = inner.insert(arith.Constant.index(1)).results[0]
        shifted = inner.insert(arith.AddI(loop.induction_var, one)).results[0]
        inner.insert(scf.Yield())
        pattern = classify_index(shifted, loop.induction_var)
        assert pattern.kind == "affine" and pattern.parameter == 1

    def test_scaled(self):
        _, _, loop, inner = _loop_skeleton([])
        two = inner.insert(arith.Constant.index(2)).results[0]
        scaled = inner.insert(arith.MulI(loop.induction_var, two)).results[0]
        inner.insert(scf.Yield())
        assert classify_index(scaled, loop.induction_var).parameter == 2

    def test_invariant_constant(self):
        _, _, loop, inner = _loop_skeleton([])
        c = inner.insert(arith.Constant.index(7)).results[0]
        inner.insert(scf.Yield())
        assert classify_index(c, loop.induction_var).kind == "invariant"

    def test_periodic_mod(self):
        _, _, loop, inner = _loop_skeleton([])
        n = inner.insert(arith.Constant.index(8)).results[0]
        slot = inner.insert(arith.RemSI(loop.induction_var, n)).results[0]
        inner.insert(scf.Yield())
        pattern = classify_index(slot, loop.induction_var)
        assert pattern.kind == "periodic" and pattern.parameter == 8

    def test_outer_value_is_invariant(self):
        module, fn, loop, inner = _loop_skeleton([MemRefType(index, [])])
        # load computed OUTSIDE the loop: invariant by position
        outer = Builder.before(loop)
        loaded = outer.insert(memref.Load(fn.body.args[0], [])).results[0]
        inner.insert(scf.Yield())
        body = loop.regions[0].block
        assert classify_index(loaded, loop.induction_var, body).kind == \
            "invariant"


class TestDependences:
    def test_elementwise_no_dep(self):
        _, fn, loop, inner = _loop_skeleton([MemRefType(f32, [100])])
        a = fn.body.args[0]
        v = inner.insert(memref.Load(a, [loop.induction_var])).results[0]
        doubled = inner.insert(arith.AddF(v, v)).results[0]
        inner.insert(memref.Store(doubled, a, [loop.induction_var]))
        inner.insert(scf.Yield())
        assert loop_carried_dependences(loop) == []
        assert min_initiation_interval(loop) == 1

    def test_rank0_recurrence(self):
        _, fn, loop, inner = _loop_skeleton([MemRefType(f32, [])])
        s = fn.body.args[0]
        v = inner.insert(memref.Load(s, [])).results[0]
        one = inner.insert(arith.Constant.float(1.0, 32)).results[0]
        acc = inner.insert(arith.AddF(v, one)).results[0]
        inner.insert(memref.Store(acc, s, []))
        inner.insert(scf.Yield())
        deps = loop_carried_dependences(loop)
        assert len(deps) == 1 and deps[0].distance == 1
        assert min_initiation_interval(loop) >= DEFAULT_LATENCIES["arith.addf"]

    def test_round_robin_distance(self):
        """copies[(iv) mod 8]: distance 8 -> II collapses."""
        _, fn, loop, inner = _loop_skeleton([MemRefType(f32, [8])])
        copies = fn.body.args[0]
        n = inner.insert(arith.Constant.index(8)).results[0]
        slot = inner.insert(arith.RemSI(loop.induction_var, n)).results[0]
        v = inner.insert(memref.Load(copies, [slot])).results[0]
        one = inner.insert(arith.Constant.float(1.0, 32)).results[0]
        acc = inner.insert(arith.AddF(v, one)).results[0]
        inner.insert(memref.Store(acc, copies, [slot]))
        inner.insert(scf.Yield())
        deps = loop_carried_dependences(loop)
        assert deps and deps[0].distance == 8
        assert min_initiation_interval(loop) <= 2

    def test_shifted_store_distance_one(self):
        """a[i+1] written, a[i] read -> carried dependence."""
        _, fn, loop, inner = _loop_skeleton([MemRefType(f32, [100])])
        a = fn.body.args[0]
        v = inner.insert(memref.Load(a, [loop.induction_var])).results[0]
        one = inner.insert(arith.Constant.index(1)).results[0]
        next_i = inner.insert(arith.AddI(loop.induction_var, one)).results[0]
        inner.insert(memref.Store(v, a, [next_i]))
        inner.insert(scf.Yield())
        deps = loop_carried_dependences(loop)
        assert deps and deps[0].distance == 1

    def test_store_only_no_dep(self):
        _, fn, loop, inner = _loop_skeleton([MemRefType(f32, [100])])
        a = fn.body.args[0]
        zero = inner.insert(arith.Constant.float(0.0, 32)).results[0]
        inner.insert(memref.Store(zero, a, [loop.induction_var]))
        inner.insert(scf.Yield())
        assert loop_carried_dependences(loop) == []


class TestLatency:
    def test_chain_latency_additive(self):
        _, fn, loop, inner = _loop_skeleton([MemRefType(f32, [100])])
        a = fn.body.args[0]
        v = inner.insert(memref.Load(a, [loop.induction_var])).results[0]
        m = inner.insert(arith.MulF(v, v)).results[0]
        s = inner.insert(arith.AddF(m, v)).results[0]
        inner.insert(memref.Store(s, a, [loop.induction_var]))
        inner.insert(scf.Yield())
        latency = float_chain_latency(loop.regions[0].block)
        expected = (
            DEFAULT_LATENCIES["arith.mulf"] + DEFAULT_LATENCIES["arith.addf"]
        )
        assert latency >= expected

    def test_parallel_chains_take_max(self):
        _, fn, loop, inner = _loop_skeleton([MemRefType(f32, [100])])
        a = fn.body.args[0]
        v = inner.insert(memref.Load(a, [loop.induction_var])).results[0]
        m1 = inner.insert(arith.MulF(v, v)).results[0]
        inner.insert(arith.MulF(v, v))  # second, independent mul
        inner.insert(memref.Store(m1, a, [loop.induction_var]))
        inner.insert(scf.Yield())
        latency = float_chain_latency(loop.regions[0].block)
        # two independent muls: latency of one mul (plus load), not two
        assert latency < 2 * DEFAULT_LATENCIES["arith.mulf"] + 2


class TestStaticValues:
    """The helpers the scf interpreter, the vectorizer and the
    parallel-loop checker share for constant bounds and trip counts."""

    def test_trip_count_rounds_up_and_clamps(self):
        assert trip_count(0, 100, 1) == 100
        assert trip_count(0, 10, 3) == 4
        assert trip_count(2, 10, 4) == 2
        assert trip_count(5, 5, 1) == 0
        assert trip_count(10, 0, 1) == 0
        assert trip_count(0, 10, 0) == 0
        assert trip_count(0, 10, -1) == 0

    def test_const_int_reads_integer_constants_only(self):
        _, fn, loop, inner = _loop_skeleton([MemRefType(f32, [100])])
        lb, ub, step = loop.operands
        assert (const_int(lb), const_int(ub), const_int(step)) == (0, 100, 1)
        assert const_int(inner.insert(arith.Constant.int(7)).results[0]) == 7
        half = inner.insert(arith.Constant.float(0.5)).results[0]
        assert const_int(half) is None
        assert const_int(loop.induction_var) is None
        assert const_int(fn.body.args[0]) is None
        total = inner.insert(arith.AddI(lb, ub)).results[0]
        assert const_int(total) is None

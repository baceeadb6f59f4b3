"""Segmented (triangular / CSR / tiled) nest classification and runtime
pins.

Imperfect outer-inner pairs whose inner trip count is affine in the
outer IV (triangular ``j = i+1 .. n``) or loaded from a monotone offset
array (CSR row loops) classify ``nest_segmented`` and evaluate
whole-space via prefix-sum index construction — with the offset-array
contract *proved at runtime* (shuffled offsets log a reasoned bail and
rerun on the always-correct scalar tier).  The k-tiled GEMM extends the
shape: its rows are the rectangular (i, j) levels, its inner level is a
tiled ``kk``/``k`` pair, and its epilogue writes c(i, j) back in place;
a tile edge of 8 exercises zero, partial, exact and multi-tile rows at
fast-tier sizes on all four engine tiers.
"""

import logging

import numpy as np
import pytest

from repro.dialects import arith, builtin, func, memref, scf
from repro.ir import Builder, Interpreter
from repro.ir.types import FunctionType, MemRefType, f32, i32, index
from repro.ir.vectorize import loop_vector_mode


def _index_constants(builder, *values):
    return [
        builder.insert(arith.Constant.index(v)).results[0] for v in values
    ]


def _build_triangular(n: int):
    """y[i] = sum_{j=i+1..n} a[i,j]: inner lower bound affine in i."""
    module = builtin.ModuleOp()
    mat = MemRefType(f32, [n, n])
    vec = MemRefType(f32, [n])
    fn = func.FuncOp("f", FunctionType([mat, vec], []))
    module.body.add_op(fn)
    b = Builder.at_end(fn.body)
    lb, ub, step = _index_constants(b, 0, n, 1)
    outer = b.insert(scf.For(lb, ub, step))
    i = outer.induction_var
    ob = Builder.at_end(outer.body)
    one = ob.insert(arith.Constant.index(1)).results[0]
    j_lb = ob.insert(arith.AddI(i, one)).results[0]
    inner = ob.insert(scf.For(j_lb, ub, step))
    j = inner.induction_var
    ib = Builder.at_end(inner.body)
    a_arg, y_arg = fn.body.args
    yv = ib.insert(memref.Load(y_arg, [i])).results[0]
    av = ib.insert(memref.Load(a_arg, [i, j])).results[0]
    acc = ib.insert(arith.AddF(yv, av)).results[0]
    ib.insert(memref.Store(acc, y_arg, [i]))
    ib.insert(scf.Yield())
    ob.insert(scf.Yield())
    b.insert(func.ReturnOp())
    return module, outer


def _build_csr(n: int):
    """y[i] = sum_{j=ptr[i]..ptr[i+1]} vals[j]: CSR row-offset bounds."""
    module = builtin.ModuleOp()
    ptr_ty = MemRefType(i32, [n + 1])
    vals_ty = MemRefType(f32, [8 * n])
    vec = MemRefType(f32, [n])
    fn = func.FuncOp("f", FunctionType([ptr_ty, vals_ty, vec], []))
    module.body.add_op(fn)
    b = Builder.at_end(fn.body)
    lb, ub, step = _index_constants(b, 0, n, 1)
    outer = b.insert(scf.For(lb, ub, step))
    i = outer.induction_var
    ob = Builder.at_end(outer.body)
    ptr_arg, vals_arg, y_arg = fn.body.args
    one = ob.insert(arith.Constant.index(1)).results[0]
    i1 = ob.insert(arith.AddI(i, one)).results[0]
    start_i = ob.insert(memref.Load(ptr_arg, [i])).results[0]
    end_i = ob.insert(memref.Load(ptr_arg, [i1])).results[0]
    start = ob.insert(arith.IndexCast(start_i, index)).results[0]
    end = ob.insert(arith.IndexCast(end_i, index)).results[0]
    inner = ob.insert(scf.For(start, end, step))
    j = inner.induction_var
    ib = Builder.at_end(inner.body)
    yv = ib.insert(memref.Load(y_arg, [i])).results[0]
    vv = ib.insert(memref.Load(vals_arg, [j])).results[0]
    acc = ib.insert(arith.AddF(yv, vv)).results[0]
    ib.insert(memref.Store(acc, y_arg, [i]))
    ib.insert(scf.Yield())
    ob.insert(scf.Yield())
    b.insert(func.ReturnOp())
    return module, outer


def _csr_inputs(n: int, rng, *, shuffled: bool = False):
    counts = rng.integers(0, 8, n)
    ptr = np.zeros(n + 1, np.int32)
    np.cumsum(counts, out=ptr[1:])
    if shuffled:
        # swap two interior offsets: ptr is no longer monotone, but every
        # [ptr[i], ptr[i+1]) with ptr[i] <= ptr[i+1] still indexes vals
        # validly (rows with ptr[i] > ptr[i+1] are zero-trip)
        ptr[n // 2], ptr[n // 2 + 1] = ptr[n // 2 + 1], ptr[n // 2]
    vals = rng.standard_normal(8 * n).astype(np.float32)
    return ptr, vals


class TestClassification:
    def test_triangular_classifies_segmented(self):
        _, outer = _build_triangular(64)
        mode, plan = loop_vector_mode(outer)
        assert mode == "nest_segmented"
        # affine bounds need no runtime offset proof
        assert plan.needs_monotone == ()

    def test_csr_offsets_classify_segmented_with_monotone_proof(self):
        _, outer = _build_csr(64)
        mode, plan = loop_vector_mode(outer)
        assert mode == "nest_segmented"
        # both bounds are loaded from an offset array: runtime-proved
        assert set(plan.needs_monotone) == {"lb", "ub"}


class TestRuntimeEquivalence:
    def test_triangular_bit_identical_and_same_steps(self):
        n = 32
        rng = np.random.default_rng(11)
        a = rng.standard_normal((n, n)).astype(np.float32)
        outs = []
        steps = []
        for vectorize in (False, True):
            module, _ = _build_triangular(n)
            y = np.zeros(n, np.float32)
            interp = Interpreter(module, compiled=False, vectorize=vectorize)
            interp.call("f", a.copy(), y)
            outs.append(y)
            steps.append(interp.steps)
        assert outs[0].tobytes() == outs[1].tobytes()
        assert steps[0] == steps[1]

    def test_csr_bit_identical_and_same_steps(self):
        n = 48
        rng = np.random.default_rng(12)
        ptr, vals = _csr_inputs(n, rng)
        outs = []
        steps = []
        for vectorize in (False, True):
            module, _ = _build_csr(n)
            y = np.zeros(n, np.float32)
            interp = Interpreter(module, compiled=False, vectorize=vectorize)
            interp.call("f", ptr.copy(), vals.copy(), y)
            outs.append(y)
            steps.append(interp.steps)
        assert outs[0].tobytes() == outs[1].tobytes()
        assert steps[0] == steps[1]

    def test_shuffled_offsets_bail_reasoned_and_stay_correct(self, caplog):
        """A non-monotone offset array violates the CSR contract: the
        fast tier must refuse (logging why) and the scalar walk must
        still produce the exact scalar-tier bits."""
        n = 48
        rng = np.random.default_rng(13)
        ptr, vals = _csr_inputs(n, rng, shuffled=True)
        outs = []
        for vectorize in (False, True):
            module, _ = _build_csr(n)
            y = np.zeros(n, np.float32)
            interp = Interpreter(module, compiled=False, vectorize=vectorize)
            if vectorize:
                with caplog.at_level(
                    logging.DEBUG, logger="repro.ir.vectorize"
                ):
                    interp.call("f", ptr.copy(), vals.copy(), y)
            else:
                interp.call("f", ptr.copy(), vals.copy(), y)
            outs.append(y)
        assert outs[0].tobytes() == outs[1].tobytes()
        assert any(
            "monotone" in record.message for record in caplog.records
        ), "expected a reasoned monotone bail-out in the debug log"


# ---------------------------------------------------------------------------
# The k-tiled GEMM: rectangular rows, a tiled inner level, an in-place
# write-back
# ---------------------------------------------------------------------------

#: zero trips, one partial tile, one exact tile, several tiles ending in
#: a partial one (tile edge 8)
_TILED_SIZES = (0, 1, 5, 8, 20)
_TIERS = ((False, False), (False, True), (True, False), (True, True))


@pytest.fixture(scope="module")
def tiled_gemm():
    from repro.session import Session
    from repro.workloads.gemm import gemm_source

    return Session(gemm_source(tile=8))


def _gemm_inputs(n: int):
    rng = np.random.default_rng(100 + n)
    return [
        rng.standard_normal((n, n)).astype(np.float32) for _ in range(3)
    ]


def _run_gemm(program, n: int, compiled: bool, vectorize: bool):
    a, b, c = _gemm_inputs(n)
    result = program.executor(compiled=compiled, vectorize=vectorize).run(
        "gemm_tiled", a, b, c, np.array(n, dtype=np.int32)
    )
    return c, result


class TestTiledGemm:
    @pytest.mark.parametrize("simdlen", [None, 2, 4])
    @pytest.mark.parametrize("n", _TILED_SIZES)
    def test_four_tiers_bit_identical(self, tiled_gemm, n, simdlen):
        """Every tier agrees bit for bit in the output and in the
        modelled step, time and cycle counts, and the output equals the
        NumPy reference's accumulation order."""
        from repro.session import KernelOverrides
        from repro.workloads.gemm import gemm_reference

        program = tiled_gemm.program(KernelOverrides(simdlen=simdlen))
        a, b, c = _gemm_inputs(n)
        expected = gemm_reference(a, b, c).tobytes()
        runs = [_run_gemm(program, n, *tier) for tier in _TIERS]
        for c_out, result in runs:
            assert c_out.tobytes() == expected
            assert result.interpreter_steps == runs[0][1].interpreter_steps
            assert result.device_time_ms == runs[0][1].device_time_ms
            assert result.kernel_cycles == runs[0][1].kernel_cycles

    @pytest.mark.parametrize("compiled", [False, True])
    def test_root_plan_handles_the_nest(self, monkeypatch, compiled):
        """The (i, j) root classifies ``nest_segmented`` and runs the
        whole nest: the k loop never reaches its own reduction entry."""
        import repro.ir.vectorize as vectorize
        from repro.session import Session
        from repro.workloads.gemm import gemm_source

        entered = []
        real = vectorize.try_vectorized_reduction

        def recording(interp, loop, *args):
            entered.append(loop)
            return real(interp, loop, *args)

        # patched before the fresh program compiles: the block-JIT
        # binds the entry when it emits the loop
        monkeypatch.setattr(vectorize, "try_vectorized_reduction", recording)
        program = Session(gemm_source(tile=8)).program()
        loops = [
            op for op in program.device_module.walk() if op.name == "scf.for"
        ]
        assert loop_vector_mode(loops[0])[0] == "nest_segmented"
        fast, _ = _run_gemm(program, 20, compiled, True)
        scalar, _ = _run_gemm(program, 20, False, False)
        assert fast.tobytes() == scalar.tobytes()
        assert not any(loop is loops[-1] for loop in entered)


@pytest.mark.parametrize("name", ["saxpy", "sgesl"])
def test_rank1_loop_nest_runs_whole_space(monkeypatch, name):
    """The pre-offload core module (the CPU baseline of Tables 5/6)
    runs its rank-1 ``omp.loop_nest`` loops — runtime-bounded spans
    (SAXPY's loaded ``n``, SGESL's ``j = k+1, n``) — through
    ``try_vectorized_nest``, matching the scalar tier's outputs and
    steps exactly."""
    import repro.ir.vectorize as vectorize
    from repro.frontend import compile_to_core
    from repro.workloads import get_workload

    handled = []
    real = vectorize.try_vectorized_nest

    def recording(interp, loop, *args):
        result = real(interp, loop, *args)
        if result:
            handled.append(loop)
        return result

    monkeypatch.setattr(vectorize, "try_vectorized_nest", recording)
    workload = get_workload(name)
    module = compile_to_core(workload.source).module
    nests = [op for op in module.walk() if op.name == "omp.loop_nest"]
    assert nests
    assert {loop_vector_mode(op)[0] for op in nests} == {"nest_segmented"}
    runs = []
    for tier in ({}, {"compiled": False, "vectorize": False}):
        instance = workload.instance(workload.smoke_size)
        interp = Interpreter(module, **tier)
        interp.call(workload.entry, *instance.args)
        runs.append((instance.args, interp.steps))
    (fast, fast_steps), (scalar, scalar_steps) = runs
    assert all(any(op is loop for loop in handled) for op in nests)
    assert [a.tobytes() for a in fast] == [a.tobytes() for a in scalar]
    assert fast_steps == scalar_steps

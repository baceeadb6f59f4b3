"""Reduction fast path: bit-level equivalence with the scalar interpreter.

The vectorized reduction path (memref accumulators: the round-robin
copies and a rank-0 cell) promises the *same float32 bits* as the scalar
walk: ordered ``ufunc.accumulate``/``ufunc.at`` folding preserves the
per-cell combine order, so no reassociation-induced rounding differences
can appear.  These properties pin that guarantee, including empty and
single-trip loops and the scalar-short-loop fallback boundary.

NaN inputs and signed-zero min/max ties are documented exclusions (the
scalar engine uses Python ``min``/``max``, whose NaN/−0.0 tie behaviour
differs from ``np.minimum``/``np.maximum``); the strategies below generate
finite values and normalise −0.0.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dialects import arith, builtin, func, memref, scf
from repro.ir import Builder, Interpreter
from repro.ir import vectorize
from repro.ir.types import FunctionType, MemRefType, f32


@pytest.fixture(autouse=True)
def _low_vector_threshold(monkeypatch):
    """Exercise the vectorized paths even on tiny loops (the production
    threshold of 64 would route short property cases to the scalar
    engine, testing nothing)."""
    monkeypatch.setattr(vectorize, "_MIN_TRIPS", 2)


def _finite_f32_list(min_size=0, max_size=130, bound=1e5):
    return st.lists(
        st.floats(
            min_value=-bound,
            max_value=bound,
            allow_nan=False,
            width=32,
        ).map(lambda v: v + 0.0),  # normalise -0.0 to +0.0
        min_size=min_size,
        max_size=max_size,
    )


def build_round_robin(n: int, ncopies: int):
    """func @f(%x: memref<n x f32>, %p: memref<ncopies x f32>) with the
    round-robin accumulator body ``p[i mod ncopies] += x[i]`` — the shape
    the reduction-copies rewrite emits."""
    module = builtin.ModuleOp()
    fn = func.FuncOp(
        "f",
        FunctionType([MemRefType(f32, [n]), MemRefType(f32, [ncopies])], []),
    )
    module.body.add_op(fn)
    b = Builder.at_end(fn.body)
    x, p = fn.body.args
    lb = b.insert(arith.Constant.index(0)).results[0]
    ub = b.insert(arith.Constant.index(n)).results[0]
    step = b.insert(arith.Constant.index(1)).results[0]
    loop = b.insert(scf.For(lb, ub, step))
    inner = Builder.at_end(loop.body)
    iv = loop.induction_var
    copies = inner.insert(arith.Constant.index(ncopies)).results[0]
    slot = inner.insert(arith.RemSI(iv, copies)).results[0]
    pv = inner.insert(memref.Load(p, [slot])).results[0]
    xv = inner.insert(memref.Load(x, [iv])).results[0]
    combined = inner.insert(arith.AddF(pv, xv)).results[0]
    inner.insert(memref.Store(combined, p, [slot]))
    inner.insert(scf.Yield())
    b.insert(func.ReturnOp())
    return module


def build_rank0_accumulator(n: int, op_cls):
    """func @f(%x: memref<n x f32>, %s: memref<f32>) with a rank-0
    accumulator cell: ``s[] = combine(s[], x[i])``."""
    module = builtin.ModuleOp()
    fn = func.FuncOp(
        "f", FunctionType([MemRefType(f32, [n]), MemRefType(f32, [])], [])
    )
    module.body.add_op(fn)
    b = Builder.at_end(fn.body)
    x, s = fn.body.args
    lb = b.insert(arith.Constant.index(0)).results[0]
    ub = b.insert(arith.Constant.index(n)).results[0]
    step = b.insert(arith.Constant.index(1)).results[0]
    loop = b.insert(scf.For(lb, ub, step))
    inner = Builder.at_end(loop.body)
    sv = inner.insert(memref.Load(s, [])).results[0]
    xv = inner.insert(memref.Load(x, [loop.induction_var])).results[0]
    combined = inner.insert(op_cls(sv, xv)).results[0]
    inner.insert(memref.Store(combined, s, []))
    inner.insert(scf.Yield())
    b.insert(func.ReturnOp())
    return module


def _scalar(module, *args):
    interp = Interpreter(module, compiled=False, vectorize=False)
    result = interp.call("f", *args)
    return result, interp.steps


def _fast(module, *args):
    interp = Interpreter(module)  # compiled + vectorized (the default)
    result = interp.call("f", *args)
    return result, interp.steps


_COMBINERS = {
    "add": arith.AddF,
    "mul": arith.MulF,
    "min": arith.MinF,
    "max": arith.MaxF,
}


@given(
    values=_finite_f32_list(min_size=0, max_size=200),
    ncopies=st.integers(min_value=1, max_value=9),
)
@settings(max_examples=25, deadline=None)
def test_round_robin_accumulator_bit_identical(values, ncopies):
    n = len(values)
    x = np.array(values, dtype=np.float32)
    rng = np.random.default_rng(n + ncopies)
    p_init = rng.standard_normal(ncopies).astype(np.float32)

    p_fast = p_init.copy()
    _, fast_steps = _fast(build_round_robin(n, ncopies), x, p_fast)
    p_scalar = p_init.copy()
    _, scalar_steps = _scalar(build_round_robin(n, ncopies), x, p_scalar)

    assert p_fast.tobytes() == p_scalar.tobytes()
    assert fast_steps == scalar_steps


@pytest.mark.parametrize("kind", sorted(_COMBINERS))
@given(values=_finite_f32_list(max_size=150))
@settings(max_examples=20, deadline=None)
def test_rank0_accumulator_bit_identical(kind, values):
    op_cls = _COMBINERS[kind]
    n = len(values)
    x = np.array(values, dtype=np.float32)

    s_fast = np.array(1.5, dtype=np.float32)
    _, fast_steps = _fast(build_rank0_accumulator(n, op_cls), x, s_fast)
    s_scalar = np.array(1.5, dtype=np.float32)
    _, scalar_steps = _scalar(build_rank0_accumulator(n, op_cls), x, s_scalar)

    assert s_fast.tobytes() == s_scalar.tobytes()
    assert fast_steps == scalar_steps


@pytest.mark.parametrize("n", [0, 1, 2, 63, 64, 65])
def test_trip_count_boundaries(n):
    """Empty, single-trip and threshold-boundary loops agree exactly
    (with the production threshold restored)."""
    vectorize._MIN_TRIPS = 64  # undo the fixture for this test
    x = (np.arange(n, dtype=np.float32) - n / 3).astype(np.float32)

    p_fast = np.full(4, 0.25, dtype=np.float32)
    _, fast_steps = _fast(build_round_robin(n, 4), x, p_fast)
    p_scalar = np.full(4, 0.25, dtype=np.float32)
    _, scalar_steps = _scalar(build_round_robin(n, 4), x, p_scalar)
    assert p_fast.tobytes() == p_scalar.tobytes()
    assert fast_steps == scalar_steps

    s_fast = np.array(0.0, dtype=np.float32)
    _fast(build_rank0_accumulator(n, arith.AddF), x, s_fast)
    s_scalar = np.array(0.0, dtype=np.float32)
    _scalar(build_rank0_accumulator(n, arith.AddF), x, s_scalar)
    assert s_fast.tobytes() == s_scalar.tobytes()


def test_reduction_modes_recognised():
    """The analysis classifies both accumulator shapes as intended."""
    from repro.ir.vectorize import loop_vector_mode

    module = build_round_robin(128, 8)
    (loop,) = [op for op in module.walk() if op.name == "scf.for"]
    assert loop_vector_mode(loop)[0] == "memref_reduction"

    module = build_rank0_accumulator(128, arith.MaxF)
    (loop,) = [op for op in module.walk() if op.name == "scf.for"]
    assert loop_vector_mode(loop)[0] == "memref_reduction"

"""Vectorized-loop fast path: equivalence with the scalar interpreter.

The property tested is the one the fast path relies on: for
dependence-free elementwise loops, NumPy whole-loop evaluation produces
*bit-identical* float32 results to the scalar walk.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dialects import arith, builtin, func, memref, scf
from repro.ir import Builder, Interpreter
from repro.ir.vectorize import _loop_is_vectorizable, try_vectorized_loop
from repro.ir.types import FunctionType, MemRefType, f32


def build_elementwise_module(n: int, op_cls):
    """y[i] = x[i] <op> x[i] over n elements (n >= 64 to trigger the fast
    path)."""
    module = builtin.ModuleOp()
    vec = MemRefType(f32, [n])
    fn = func.FuncOp("f", FunctionType([vec, vec], []))
    module.body.add_op(fn)
    b = Builder.at_end(fn.body)
    lb = b.insert(arith.Constant.index(0)).results[0]
    ub = b.insert(arith.Constant.index(n)).results[0]
    step = b.insert(arith.Constant.index(1)).results[0]
    loop = b.insert(scf.For(lb, ub, step))
    inner = Builder.at_end(loop.body)
    x, y = fn.body.args
    xv = inner.insert(memref.Load(x, [loop.induction_var])).results[0]
    r = inner.insert(op_cls(xv, xv)).results[0]
    inner.insert(memref.Store(r, y, [loop.induction_var]))
    inner.insert(scf.Yield())
    b.insert(func.ReturnOp())
    return module, loop


class TestEligibility:
    def test_elementwise_is_vectorizable(self):
        _, loop = build_elementwise_module(128, arith.AddF)
        assert _loop_is_vectorizable(loop)

    def test_reduction_is_not(self):
        """s[] += x[i]: rank-0 store -> carried dependence -> scalar."""
        module = builtin.ModuleOp()
        fn = func.FuncOp(
            "f", FunctionType([MemRefType(f32, [128]), MemRefType(f32, [])], [])
        )
        module.body.add_op(fn)
        b = Builder.at_end(fn.body)
        lb = b.insert(arith.Constant.index(0)).results[0]
        ub = b.insert(arith.Constant.index(128)).results[0]
        step = b.insert(arith.Constant.index(1)).results[0]
        loop = b.insert(scf.For(lb, ub, step))
        inner = Builder.at_end(loop.body)
        x, s = fn.body.args
        xv = inner.insert(memref.Load(x, [loop.induction_var])).results[0]
        sv = inner.insert(memref.Load(s, [])).results[0]
        acc = inner.insert(arith.AddF(sv, xv)).results[0]
        inner.insert(memref.Store(acc, s, []))
        inner.insert(scf.Yield())
        b.insert(func.ReturnOp())
        assert not _loop_is_vectorizable(loop)

    def test_nested_region_is_not(self):
        module = builtin.ModuleOp()
        fn = func.FuncOp("f", FunctionType([], []))
        module.body.add_op(fn)
        b = Builder.at_end(fn.body)
        lb = b.insert(arith.Constant.index(0)).results[0]
        ub = b.insert(arith.Constant.index(128)).results[0]
        step = b.insert(arith.Constant.index(1)).results[0]
        loop = b.insert(scf.For(lb, ub, step))
        inner = Builder.at_end(loop.body)
        cond = inner.insert(arith.Constant.bool(True)).results[0]
        if_op = inner.insert(scf.If(cond))
        Builder.at_end(if_op.then_block).insert(scf.Yield())
        Builder.at_end(if_op.else_block).insert(scf.Yield())
        inner.insert(scf.Yield())
        b.insert(func.ReturnOp())
        assert not _loop_is_vectorizable(loop)

    def test_short_loop_stays_scalar(self):
        module, loop = build_elementwise_module(8, arith.AddF)
        x = np.ones(8, np.float32)
        y = np.zeros(8, np.float32)
        interp = Interpreter(module)
        env = {}
        # short trip count: handler declines (returns False)
        fn = module.body.first_op
        env[fn.body.args[0]] = x
        env[fn.body.args[1]] = y
        assert not try_vectorized_loop(interp, loop, env, 0, 8, 1)


@pytest.mark.parametrize("op_cls", [arith.AddF, arith.MulF, arith.SubF, arith.DivF])
def test_bit_identical_to_scalar(op_cls):
    n = 200
    rng = np.random.default_rng(1)
    x = (rng.standard_normal(n).astype(np.float32) + 2.0).astype(np.float32)

    module_v, _ = build_elementwise_module(n, op_cls)
    y_vec = np.zeros(n, np.float32)
    Interpreter(module_v).call("f", x, y_vec)

    # scalar reference: force trips < 64 threshold off by monkeypatching
    # is unnecessary — compute directly per element with numpy scalars
    expected = np.zeros(n, np.float32)
    table = {
        arith.AddF: np.add, arith.MulF: np.multiply,
        arith.SubF: np.subtract, arith.DivF: np.divide,
    }
    for i in range(n):
        expected[i] = table[op_cls](x[i], x[i])

    assert y_vec.tobytes() == expected.tobytes()


@given(
    offset=st.integers(min_value=-3, max_value=3),
    scale=st.floats(min_value=-10, max_value=10, allow_nan=False, width=32),
    n=st.integers(min_value=64, max_value=257),
)
@settings(max_examples=30, deadline=None)
def test_saxpy_body_property(offset, scale, n):
    """y[i] = y[i] + a*x[i] matches NumPy bit-for-bit for random shapes."""
    module = builtin.ModuleOp()
    vec = MemRefType(f32, [n])
    fn = func.FuncOp("f", FunctionType([vec, vec, MemRefType(f32, [])], []))
    module.body.add_op(fn)
    b = Builder.at_end(fn.body)
    lb = b.insert(arith.Constant.index(0)).results[0]
    ub = b.insert(arith.Constant.index(n)).results[0]
    step = b.insert(arith.Constant.index(1)).results[0]
    loop = b.insert(scf.For(lb, ub, step))
    inner = Builder.at_end(loop.body)
    x, y, a = fn.body.args
    av = inner.insert(memref.Load(a, [])).results[0]
    xv = inner.insert(memref.Load(x, [loop.induction_var])).results[0]
    yv = inner.insert(memref.Load(y, [loop.induction_var])).results[0]
    prod = inner.insert(arith.MulF(av, xv)).results[0]
    acc = inner.insert(arith.AddF(yv, prod)).results[0]
    inner.insert(memref.Store(acc, y, [loop.induction_var]))
    inner.insert(scf.Yield())
    b.insert(func.ReturnOp())

    rng = np.random.default_rng(abs(offset) + n)
    xa = rng.standard_normal(n).astype(np.float32)
    ya = rng.standard_normal(n).astype(np.float32)
    expected = (ya + np.float32(scale) * xa).astype(np.float32)
    Interpreter(module).call("f", xa, ya, np.array(scale, np.float32))
    assert ya.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# Gallery loop shapes: invariant store dims, gathers, rank-2 nests
# ---------------------------------------------------------------------------


def _row_update_module(n: int):
    """b[row, j] = a[row, j] + 1.0 — invariant row subscript, affine j."""
    module = builtin.ModuleOp()
    mat = MemRefType(f32, [n, n])
    fn = func.FuncOp("f", FunctionType([mat, mat, MemRefType(f32, [])], []))
    module.body.add_op(fn)
    b = Builder.at_end(fn.body)
    lb = b.insert(arith.Constant.index(0)).results[0]
    ub = b.insert(arith.Constant.index(n)).results[0]
    step = b.insert(arith.Constant.index(1)).results[0]
    row = b.insert(arith.Constant.index(2)).results[0]
    loop = b.insert(scf.For(lb, ub, step))
    inner = Builder.at_end(loop.body)
    a_arg, b_arg, _ = fn.body.args
    av = inner.insert(memref.Load(a_arg, [row, loop.induction_var])).results[0]
    one = inner.insert(arith.Constant.float(1.0, 32)).results[0]
    r = inner.insert(arith.AddF(av, one)).results[0]
    inner.insert(memref.Store(r, b_arg, [row, loop.induction_var]))
    inner.insert(scf.Yield())
    b.insert(func.ReturnOp())
    return module, loop


class TestInvariantStoreDim:
    """2-D array row updates: one invariant subscript + one affine."""

    def test_is_vectorizable(self):
        _, loop = _row_update_module(128)
        assert _loop_is_vectorizable(loop)

    def test_bit_identical(self):
        n = 128
        module, _ = _row_update_module(n)
        rng_local = np.random.default_rng(9)
        a = rng_local.standard_normal((n, n)).astype(np.float32)
        out_vec = np.zeros((n, n), np.float32)
        out_scalar = np.zeros((n, n), np.float32)
        Interpreter(module).call("f", a, out_vec, np.zeros((), np.float32))
        Interpreter(module, compiled=False, vectorize=False).call(
            "f", a, out_scalar, np.zeros((), np.float32)
        )
        assert out_vec.tobytes() == out_scalar.tobytes()
        assert np.array_equal(out_vec[2], a[2] + np.float32(1.0))

    def test_all_invariant_dims_stay_scalar(self):
        """b[2, 3] = ... every iteration: same cell, must not vectorize."""
        n = 128
        module = builtin.ModuleOp()
        mat = MemRefType(f32, [n, n])
        fn = func.FuncOp("f", FunctionType([mat], []))
        module.body.add_op(fn)
        b = Builder.at_end(fn.body)
        lb = b.insert(arith.Constant.index(0)).results[0]
        ub = b.insert(arith.Constant.index(n)).results[0]
        step = b.insert(arith.Constant.index(1)).results[0]
        i2 = b.insert(arith.Constant.index(2)).results[0]
        i3 = b.insert(arith.Constant.index(3)).results[0]
        loop = b.insert(scf.For(lb, ub, step))
        inner = Builder.at_end(loop.body)
        v = inner.insert(arith.Constant.float(5.0, 32)).results[0]
        inner.insert(memref.Store(v, fn.body.args[0], [i2, i3]))
        inner.insert(scf.Yield())
        b.insert(func.ReturnOp())
        assert not _loop_is_vectorizable(loop)


def _gather_module(n: int):
    """y[i] = x[idx[i]] — the SpMV gather shape."""
    module = builtin.ModuleOp()
    from repro.ir.types import i32

    fn = func.FuncOp(
        "f",
        FunctionType(
            [MemRefType(f32, [n]), MemRefType(i32, [n]), MemRefType(f32, [n])],
            [],
        ),
    )
    module.body.add_op(fn)
    b = Builder.at_end(fn.body)
    lb = b.insert(arith.Constant.index(0)).results[0]
    ub = b.insert(arith.Constant.index(n)).results[0]
    step = b.insert(arith.Constant.index(1)).results[0]
    loop = b.insert(scf.For(lb, ub, step))
    inner = Builder.at_end(loop.body)
    x, idx, y = fn.body.args
    iv = inner.insert(memref.Load(idx, [loop.induction_var])).results[0]
    xv = inner.insert(memref.Load(x, [iv])).results[0]
    inner.insert(memref.Store(xv, y, [loop.induction_var]))
    inner.insert(scf.Yield())
    b.insert(func.ReturnOp())
    return module, loop


class TestGatherLoads:
    def test_is_vectorizable(self):
        _, loop = _gather_module(128)
        assert _loop_is_vectorizable(loop)

    def test_bit_identical(self):
        n = 128
        module, _ = _gather_module(n)
        rng_local = np.random.default_rng(11)
        x = rng_local.standard_normal(n).astype(np.float32)
        idx = rng_local.integers(0, n, n).astype(np.int32)
        y_vec = np.zeros(n, np.float32)
        y_scalar = np.zeros(n, np.float32)
        Interpreter(module).call("f", x, idx, y_vec)
        Interpreter(module, compiled=False, vectorize=False).call(
            "f", x, idx, y_scalar
        )
        assert y_vec.tobytes() == y_scalar.tobytes()
        assert np.array_equal(y_vec, x[idx])

    def test_scatter_through_index_is_not_elementwise(self):
        """y[idx[i]] = x[i]: an indirect *store* could collide, so it is
        excluded from the elementwise path — it classifies as the
        runtime-proved ``scatter_store`` mode instead."""
        from repro.ir.vectorize import loop_vector_mode

        _, loop = _scatter_module(128)
        assert not _loop_is_vectorizable(loop)
        mode, plan = loop_vector_mode(loop)
        assert mode == "scatter_store"
        # the single store's subscript has no static (affine) proof, so
        # dimension 0 must pass the runtime injectivity proof
        assert plan.scatter.proof_dims == ((0,),)


def _scatter_module(n: int, scale: bool = False):
    """y[idx[i]] = x[i] (optionally 2*x[i]) — the permutation-scatter
    shape behind the histogram workload's second kernel."""
    module = builtin.ModuleOp()
    from repro.ir.types import i32

    fn = func.FuncOp(
        "f",
        FunctionType(
            [MemRefType(f32, [n]), MemRefType(i32, [n]), MemRefType(f32, [n])],
            [],
        ),
    )
    module.body.add_op(fn)
    b = Builder.at_end(fn.body)
    lb = b.insert(arith.Constant.index(0)).results[0]
    ub = b.insert(arith.Constant.index(n)).results[0]
    step = b.insert(arith.Constant.index(1)).results[0]
    loop = b.insert(scf.For(lb, ub, step))
    inner = Builder.at_end(loop.body)
    x, idx, y = fn.body.args
    iv = inner.insert(memref.Load(idx, [loop.induction_var])).results[0]
    xv = inner.insert(memref.Load(x, [loop.induction_var])).results[0]
    if scale:
        two = inner.insert(arith.Constant.float(2.0, 32)).results[0]
        xv = inner.insert(arith.MulF(two, xv)).results[0]
    inner.insert(memref.Store(xv, y, [iv]))
    inner.insert(scf.Yield())
    b.insert(func.ReturnOp())
    return module, loop


class TestDepthOneIsSinglePass:
    def test_size_bound_does_not_split_a_depth_one_scatter(self, monkeypatch):
        """The whole-space size bound splits deeper nests only: a depth-1
        scatter far above it is still proved injective and applied in
        one pass, instead of bailing to the scalar tier."""
        import repro.ir.vectorize as vectorize

        monkeypatch.setattr(vectorize, "_MAX_NEST_ELEMS", 64)
        n = 256
        module, loop = _scatter_module(n)
        x_arg, idx_arg, y_arg = module.body.first_op.body.args
        rng = np.random.default_rng(47)
        x = rng.standard_normal(n).astype(np.float32)
        idx = rng.permutation(n).astype(np.int32)
        y = np.zeros(n, np.float32)
        env = {x_arg: x, idx_arg: idx, y_arg: y}
        assert try_vectorized_loop(Interpreter(module), loop, env, 0, n, 1)
        expected = np.zeros(n, np.float32)
        expected[idx] = x
        assert y.tobytes() == expected.tobytes()


def _accumulate_scatter_module(n: int, nb: int):
    """h[idx[i]] = h[idx[i]] + w[i] with *separate* index-load chains on
    the load and store side (the frontend's lowering of
    ``h(bins(i)) = h(bins(i)) + w(i)``)."""
    module = builtin.ModuleOp()
    from repro.ir.types import i32

    fn = func.FuncOp(
        "f",
        FunctionType(
            [MemRefType(i32, [n]), MemRefType(f32, [n]), MemRefType(f32, [nb])],
            [],
        ),
    )
    module.body.add_op(fn)
    b = Builder.at_end(fn.body)
    lb = b.insert(arith.Constant.index(0)).results[0]
    ub = b.insert(arith.Constant.index(n)).results[0]
    step = b.insert(arith.Constant.index(1)).results[0]
    loop = b.insert(scf.For(lb, ub, step))
    inner = Builder.at_end(loop.body)
    idx, w, h = fn.body.args
    load_idx = inner.insert(memref.Load(idx, [loop.induction_var])).results[0]
    hv = inner.insert(memref.Load(h, [load_idx])).results[0]
    wv = inner.insert(memref.Load(w, [loop.induction_var])).results[0]
    acc = inner.insert(arith.AddF(hv, wv)).results[0]
    store_idx = inner.insert(memref.Load(idx, [loop.induction_var])).results[0]
    inner.insert(memref.Store(acc, h, [store_idx]))
    inner.insert(scf.Yield())
    b.insert(func.ReturnOp())
    return module, loop


class TestScatterStores:
    def test_permutation_scatter_bit_identical(self):
        n = 256
        module, loop = _scatter_module(n, scale=True)
        from repro.ir.vectorize import loop_vector_mode

        mode, _ = loop_vector_mode(loop)
        assert mode == "scatter_store"
        rng = np.random.default_rng(17)
        x = rng.standard_normal(n).astype(np.float32)
        idx = rng.permutation(n).astype(np.int32)
        y_vec = np.zeros(n, np.float32)
        y_scalar = np.zeros(n, np.float32)
        Interpreter(module).call("f", x, idx, y_vec)
        Interpreter(module, compiled=False, vectorize=False).call(
            "f", x, idx, y_scalar
        )
        assert y_vec.tobytes() == y_scalar.tobytes()
        expected = np.zeros(n, np.float32)
        expected[idx] = (np.float32(2.0) * x).astype(np.float32)
        assert np.array_equal(y_vec, expected)

    def test_monotone_index_proof(self):
        """A sorted (strictly increasing, non-contiguous) index array
        passes the cheap monotone tier of the proof lattice."""
        n = 128
        module, _ = _scatter_module(n)
        rng = np.random.default_rng(19)
        x = rng.standard_normal(n).astype(np.float32)
        idx = np.sort(
            rng.choice(4 * n, size=n, replace=False).astype(np.int32)
        )
        y_vec = np.zeros(4 * n, np.float32)
        y_scalar = np.zeros(4 * n, np.float32)
        Interpreter(module).call("f", x, idx, y_vec)
        Interpreter(module, compiled=False, vectorize=False).call(
            "f", x, idx, y_scalar
        )
        assert y_vec.tobytes() == y_scalar.tobytes()

    def test_colliding_scatter_bails_and_matches_scalar(self, caplog):
        """Duplicate indices fail every runtime proof tier: the loop logs
        the failed proof, reruns scalar, and last-write-wins order is
        preserved bit for bit."""
        import logging

        n = 128
        module, _ = _scatter_module(n)
        rng = np.random.default_rng(23)
        x = rng.standard_normal(n).astype(np.float32)
        idx = rng.integers(0, 8, n).astype(np.int32)  # heavy collisions
        y_vec = np.zeros(n, np.float32)
        y_scalar = np.zeros(n, np.float32)
        with caplog.at_level(logging.DEBUG, logger="repro.ir.vectorize"):
            Interpreter(module).call("f", x, idx, y_vec)
        Interpreter(module, compiled=False, vectorize=False).call(
            "f", x, idx, y_scalar
        )
        assert y_vec.tobytes() == y_scalar.tobytes()
        assert any(
            "injectivity proof" in r.message for r in caplog.records
        )

    def test_accumulate_scatter_is_memref_reduction(self):
        """h[idx[i]] += w[i] with separate load/store index chains is the
        collision-tolerant ``ufunc.at`` reduction — no proof needed."""
        from repro.ir.vectorize import loop_vector_mode

        n, nb = 512, 16
        module, loop = _accumulate_scatter_module(n, nb)
        mode, _ = loop_vector_mode(loop)
        assert mode == "memref_reduction"
        rng = np.random.default_rng(29)
        w = rng.standard_normal(n).astype(np.float32)
        idx = rng.integers(0, nb, n).astype(np.int32)
        h_vec = np.zeros(nb, np.float32)
        h_scalar = np.zeros(nb, np.float32)
        Interpreter(module).call("f", idx, w, h_vec)
        Interpreter(module, compiled=False, vectorize=False).call(
            "f", idx, w, h_scalar
        )
        assert h_vec.tobytes() == h_scalar.tobytes()
        expected = np.zeros(nb, np.float32)
        np.add.at(expected, idx, w)
        assert h_vec.tobytes() == expected.tobytes()

    def test_stored_index_array_is_not_indirect(self):
        """Storing to the index array inside the body voids the gather
        proof: the loop must not classify as a scatter."""
        from repro.ir.vectorize import loop_vector_mode

        n = 128
        module = builtin.ModuleOp()
        from repro.ir.types import i32

        fn = func.FuncOp(
            "f",
            FunctionType(
                [MemRefType(f32, [n]), MemRefType(i32, [n]),
                 MemRefType(f32, [n])],
                [],
            ),
        )
        module.body.add_op(fn)
        b = Builder.at_end(fn.body)
        lb = b.insert(arith.Constant.index(0)).results[0]
        ub = b.insert(arith.Constant.index(n)).results[0]
        step = b.insert(arith.Constant.index(1)).results[0]
        loop = b.insert(scf.For(lb, ub, step))
        inner = Builder.at_end(loop.body)
        x, idx, y = fn.body.args
        iv = inner.insert(memref.Load(idx, [loop.induction_var])).results[0]
        xv = inner.insert(memref.Load(x, [loop.induction_var])).results[0]
        inner.insert(memref.Store(xv, y, [iv]))
        zero = inner.insert(arith.Constant.int(0, 32)).results[0]
        inner.insert(memref.Store(zero, idx, [loop.induction_var]))
        inner.insert(scf.Yield())
        b.insert(func.ReturnOp())
        mode, _ = loop_vector_mode(loop)
        assert mode is None

    def test_scatter_read_back_stays_scalar(self):
        """A body that also *reads* the scattered-to buffer cannot defer
        its stores — must not classify."""
        from repro.ir.vectorize import loop_vector_mode

        n = 128
        module = builtin.ModuleOp()
        from repro.ir.types import i32

        fn = func.FuncOp(
            "f",
            FunctionType(
                [MemRefType(f32, [n]), MemRefType(i32, [n]),
                 MemRefType(f32, [n])],
                [],
            ),
        )
        module.body.add_op(fn)
        b = Builder.at_end(fn.body)
        lb = b.insert(arith.Constant.index(0)).results[0]
        ub = b.insert(arith.Constant.index(n)).results[0]
        step = b.insert(arith.Constant.index(1)).results[0]
        loop = b.insert(scf.For(lb, ub, step))
        inner = Builder.at_end(loop.body)
        x, idx, y = fn.body.args
        iv = inner.insert(memref.Load(idx, [loop.induction_var])).results[0]
        # read y at an affine position, then scatter into y
        yv = inner.insert(memref.Load(y, [loop.induction_var])).results[0]
        xv = inner.insert(memref.Load(x, [loop.induction_var])).results[0]
        summed = inner.insert(arith.AddF(yv, xv)).results[0]
        inner.insert(memref.Store(summed, y, [iv]))
        inner.insert(scf.Yield())
        b.insert(func.ReturnOp())
        mode, _ = loop_vector_mode(loop)
        assert mode is None


@st.composite
def _subscript_tuples(draw):
    """(columns, total): 1-3 non-negative subscript columns over a
    ``total``-point space.  A column is a broadcast scalar, narrow-range
    values (duplicates likely), or distinct values over a wide range,
    optionally sorted so the monotone tier is reached."""
    total = draw(st.integers(0, 48))
    columns = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["scalar", "narrow", "distinct", "sorted"]))
        if kind == "scalar":
            columns.append(draw(st.integers(0, 2**31 - 1)))
            continue
        hi = max(1, total // 2) if kind == "narrow" else 2**31 - 1
        values = draw(st.lists(
            st.integers(0, hi), min_size=total, max_size=total,
            unique=kind != "narrow",
        ))
        if kind == "sorted":
            values.sort(reverse=draw(st.booleans()))
        dtype = draw(st.sampled_from([np.int32, np.int64]))
        columns.append(np.array(values, dtype=dtype))
    return columns, total


class TestInjectivityLattice:
    """The runtime tiers of the scatter injectivity proof: ``trivial``,
    ``monotone``, ``unique`` (sorted, adjacent compare) for one column
    and ``tuple-unique`` (lexsorted) for several."""

    def test_empty_and_single_are_trivial(self):
        from repro.ir.vectorize import _prove_injective

        assert _prove_injective(np.array([], np.int64)) == "trivial"
        assert _prove_injective(np.array([5], np.int64)) == "trivial"

    def test_strictly_monotone(self):
        from repro.ir.vectorize import _prove_injective

        up = np.arange(0, 300, 7)
        assert _prove_injective(up) == "monotone"
        assert _prove_injective(up[::-1]) == "monotone"

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_permutation_is_unique_until_an_entry_repeats(self, dtype):
        from repro.ir.vectorize import _prove_injective

        perm = np.random.default_rng(3).permutation(1000).astype(dtype)
        assert _prove_injective(perm) == "unique"
        perm[perm == 0] = 1  # 1 now appears twice
        assert _prove_injective(perm) is None

    def test_sparse_wide_range_is_unique(self):
        from repro.ir.vectorize import _prove_injective

        rng = np.random.default_rng(5)
        sparse = rng.permutation(64).astype(np.int64) * 1_000_000_007
        assert _prove_injective(sparse) == "unique"

    def test_two_column_tuples(self):
        from repro.ir.vectorize import _prove_injective_tuple

        rng = np.random.default_rng(7)
        cells = rng.permutation(120)
        rows, cols = cells // 10, cells % 10
        assert _prove_injective_tuple([rows, cols], 120) == "tuple-unique"
        rows[1], cols[1] = rows[0], cols[0]  # two lanes name one cell
        assert _prove_injective_tuple([rows, cols], 120) is None
        perm = rng.permutation(50)
        assert _prove_injective_tuple([perm, 3], 50) == "tuple-unique"
        assert _prove_injective_tuple([perm % 25, 3], 50) is None

    @given(_subscript_tuples())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_verdict_matches_a_set_oracle(self, case):
        from repro.ir.vectorize import _prove_injective_tuple

        columns, total = case
        broadcast = [np.broadcast_to(c, (total,)).tolist() for c in columns]
        injective = len(set(zip(*broadcast))) == total
        verdict = _prove_injective_tuple(columns, total)
        assert (verdict is not None) == injective


class TestHistogramNeverHashes:
    def test_perfbench_size_runs_without_np_unique(self, monkeypatch):
        """The gallery histogram at perfbench's size proves its
        permutation scatter by sorting, never by the hashed
        ``np.unique``: with that function made to raise, the default
        tier still runs whole-space, with no degradation and
        reference-exact outputs."""
        from repro.ir.vectorize import loop_vector_mode
        from repro.session import Session
        from repro.workloads import get_workload

        def hashed(*args, **kwargs):
            raise AssertionError("np.unique on the histogram hot path")

        workload = get_workload("histogram")
        program = Session(workload.source).program()
        loops = [
            op for op in program.device_module.walk() if op.name == "scf.for"
        ]
        assert [loop_vector_mode(op)[0] for op in loops] == [
            "memref_reduction", "scatter_store",
        ]
        instance = workload.instance(262144)
        monkeypatch.setattr(np, "unique", hashed)
        result = program.executor().run(workload.entry, *instance.args)
        for position, expected in instance.expected.items():
            assert instance.args[position].tobytes() == expected.tobytes()
        assert result.report.degradations == []


class TestBailOutLogging:
    def test_scalar_bail_out_is_logged(self, caplog):
        import logging

        from repro.ir.core import invalidate_analysis
        from repro.ir.vectorize import loop_vector_mode

        module = builtin.ModuleOp()
        fn = func.FuncOp("f", FunctionType([MemRefType(f32, [])], []))
        module.body.add_op(fn)
        b = Builder.at_end(fn.body)
        lb = b.insert(arith.Constant.index(0)).results[0]
        ub = b.insert(arith.Constant.index(128)).results[0]
        step = b.insert(arith.Constant.index(1)).results[0]
        loop = b.insert(scf.For(lb, ub, step))
        inner = Builder.at_end(loop.body)
        v = inner.insert(arith.Constant.float(1.0, 32)).results[0]
        inner.insert(memref.Store(v, fn.body.args[0], []))  # rank-0 store
        inner.insert(scf.Yield())
        b.insert(func.ReturnOp())
        invalidate_analysis(loop)
        with caplog.at_level(logging.DEBUG, logger="repro.ir.vectorize"):
            mode, _ = loop_vector_mode(loop)
        assert mode is None
        assert any("bail-out" in r.message for r in caplog.records)

    def test_rank_n_nest_bail_is_logged(self, caplog):
        """A rank-2 nest whose store couples both IVs logs the reasoned
        rank-n bail-out, and the scalar nested walk it falls back to
        produces bit-identical results on every tier."""
        import logging

        from repro.dialects import omp

        n = 16

        def build():
            module = builtin.ModuleOp()
            fn = func.FuncOp(
                "f", FunctionType([MemRefType(f32, [2 * n + 2])], [])
            )
            module.body.add_op(fn)
            b = Builder.at_end(fn.body)
            lb = b.insert(arith.Constant.index(0)).results[0]
            ub = b.insert(arith.Constant.index(n)).results[0]
            step = b.insert(arith.Constant.index(1)).results[0]
            nest = b.insert(
                omp.LoopNestOp([lb, lb], [ub, ub], [step, step])
            )
            inner = Builder.at_end(nest.body)
            i, j = nest.body.args
            # couples both IVs (and collides across iterations)
            flat = inner.insert(arith.AddI(i, j)).results[0]
            as_f = inner.insert(arith.SIToFP(flat, f32)).results[0]
            inner.insert(memref.Store(as_f, fn.body.args[0], [flat]))
            inner.insert(omp.YieldOp())
            b.insert(func.ReturnOp())
            return module, nest

        module, nest = build()
        out_fast = np.full(2 * n + 2, -1.0, np.float32)
        with caplog.at_level(logging.DEBUG, logger="repro.ir.vectorize"):
            Interpreter(module).call("f", out_fast)
        assert any(
            "rank-2" in r.message and "couples two IVs" in r.message
            for r in caplog.records
        )
        module_s, _ = build()
        out_scalar = np.full(2 * n + 2, -1.0, np.float32)
        Interpreter(module_s, compiled=False, vectorize=False).call(
            "f", out_scalar
        )
        assert out_fast.tobytes() == out_scalar.tobytes()


class TestOverlappingStores:
    def test_two_offset_stores_stay_scalar(self):
        """b[i] = 1; b[i+1] = 2 overlaps across iterations: whole-space
        evaluation would reorder the writes, so it must not vectorize."""
        n = 128
        module = builtin.ModuleOp()
        fn = func.FuncOp("f", FunctionType([MemRefType(f32, [n + 1])], []))
        module.body.add_op(fn)
        b = Builder.at_end(fn.body)
        lb = b.insert(arith.Constant.index(0)).results[0]
        ub = b.insert(arith.Constant.index(n)).results[0]
        step = b.insert(arith.Constant.index(1)).results[0]
        loop = b.insert(scf.For(lb, ub, step))
        inner = Builder.at_end(loop.body)
        one = inner.insert(arith.Constant.index(1)).results[0]
        v1 = inner.insert(arith.Constant.float(1.0, 32)).results[0]
        v2 = inner.insert(arith.Constant.float(2.0, 32)).results[0]
        shifted = inner.insert(arith.AddI(loop.induction_var, one)).results[0]
        inner.insert(memref.Store(v1, fn.body.args[0], [loop.induction_var]))
        inner.insert(memref.Store(v2, fn.body.args[0], [shifted]))
        inner.insert(scf.Yield())
        b.insert(func.ReturnOp())
        assert not _loop_is_vectorizable(loop)

    def test_same_cell_stores_still_vectorize(self):
        """Two stores to the identical subscript keep body op order per
        cell — safe, and results match the scalar tier bit for bit."""
        n = 128
        module = builtin.ModuleOp()
        vec = MemRefType(f32, [n])
        fn = func.FuncOp("f", FunctionType([vec, vec], []))
        module.body.add_op(fn)
        b = Builder.at_end(fn.body)
        lb = b.insert(arith.Constant.index(0)).results[0]
        ub = b.insert(arith.Constant.index(n)).results[0]
        step = b.insert(arith.Constant.index(1)).results[0]
        loop = b.insert(scf.For(lb, ub, step))
        inner = Builder.at_end(loop.body)
        x, y = fn.body.args
        xv = inner.insert(memref.Load(x, [loop.induction_var])).results[0]
        inner.insert(memref.Store(xv, y, [loop.induction_var]))
        doubled = inner.insert(arith.AddF(xv, xv)).results[0]
        inner.insert(memref.Store(doubled, y, [loop.induction_var]))
        inner.insert(scf.Yield())
        b.insert(func.ReturnOp())
        assert _loop_is_vectorizable(loop)
        rng_local = np.random.default_rng(13)
        x_data = rng_local.standard_normal(n).astype(np.float32)
        y_vec = np.zeros(n, np.float32)
        y_scalar = np.zeros(n, np.float32)
        Interpreter(module).call("f", x_data, y_vec)
        Interpreter(module, compiled=False, vectorize=False).call(
            "f", x_data, y_scalar
        )
        assert y_vec.tobytes() == y_scalar.tobytes()


class TestAnalysisCacheScoping:
    """The classification cache used to be a module-level dict keyed by
    ``id(loop)``: entries leaked for the life of the process, and a
    recycled id() could even serve a stale plan to an unrelated loop.
    It now hangs off the IR root op and dies with it."""

    def _reduction_module(self):
        module = builtin.ModuleOp()
        fn = func.FuncOp(
            "f",
            FunctionType([MemRefType(f32, [128]), MemRefType(f32, [])], []),
        )
        module.body.add_op(fn)
        b = Builder.at_end(fn.body)
        lb = b.insert(arith.Constant.index(0)).results[0]
        ub = b.insert(arith.Constant.index(128)).results[0]
        step = b.insert(arith.Constant.index(1)).results[0]
        loop = b.insert(scf.For(lb, ub, step))
        inner = Builder.at_end(loop.body)
        x, s = fn.body.args
        xv = inner.insert(memref.Load(x, [loop.induction_var])).results[0]
        sv = inner.insert(memref.Load(s, [])).results[0]
        acc = inner.insert(arith.AddF(sv, xv)).results[0]
        inner.insert(memref.Store(acc, s, []))
        inner.insert(scf.Yield())
        b.insert(func.ReturnOp())
        return module, loop

    def test_leaky_module_global_is_gone(self):
        import repro.ir.vectorize as vectorize_mod

        assert not hasattr(vectorize_mod, "_analysis_cache")

    def test_entries_live_on_the_owning_root(self):
        from repro.ir.vectorize import loop_vector_mode

        m1, l1 = build_elementwise_module(128, arith.AddF)
        m2, l2 = build_elementwise_module(128, arith.MulF)
        loop_vector_mode(l1)
        loop_vector_mode(l2)
        assert id(l1) in m1.analysis_cache
        assert id(l2) in m2.analysis_cache
        assert id(l1) not in m2.analysis_cache
        assert id(l2) not in m1.analysis_cache

    def test_cached_plans_do_not_outlive_their_program(self):
        import gc
        import weakref

        from repro.ir.vectorize import loop_vector_mode

        module, loop = self._reduction_module()
        mode, plan = loop_vector_mode(loop)
        assert mode == "memref_reduction" and plan is not None
        ref = weakref.ref(plan)
        del mode, plan, loop, module
        gc.collect()
        assert ref() is None

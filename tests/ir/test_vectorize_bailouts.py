"""Reasoned bail-out pinning: every documented scalar fallback class.

The vectorizer's contract is that a loop it declines is *re-run on the
scalar tier with identical results*, and that the decline is a reasoned
DEBUG log on ``repro.ir.vectorize`` — never a silent divergence.  The
classes already pinned in ``test_vectorize.py`` (generic
no-classification, scatter injectivity, rank-n ``omp.loop_nest``) are
complemented here by the remaining ones:

* memref-accumulator NaN min/max (``try_vectorized_reduction``);
* nest-reduction NaN min/max (single-chunk whole-space path);
* chunked min/max nest exceeding the whole-space size bound;
* a perfect ``scf.for`` chain whose nest plan bails (the ``rank-k
  scf.for nest`` spelling of the reasoned bail);
* GEMM's k-tiled nest with one condition of the segmented plan broken:
  a prologue that reads a neighbour of the cell its row writes back,
  an epilogue store that misses a row dim, or tile bounds that vary
  with a row IV;
* a permutation scatter whose negative subscript wraps onto another
  lane's cell (distinct values, one cell).
"""

import logging

import numpy as np

from repro.dialects import arith, builtin, func, memref, omp, scf
from repro.ir import Builder, Interpreter
from repro.ir.types import FunctionType, MemRefType, f32
from repro.ir.vectorize import loop_vector_mode
from tests.ir.test_vectorize import _scatter_module

LOGGER = "repro.ir.vectorize"


def _index_constants(builder, *values):
    return [
        builder.insert(arith.Constant.index(v)).results[0] for v in values
    ]


def _run_both_tiers(build, args_factory, caplog):
    """Run ``build()``'s module on the fast and scalar tiers with
    identical inputs; returns (fast_args, scalar_args, log records)."""
    rng = np.random.default_rng(43)
    fast_args = args_factory(rng)
    scalar_args = [a.copy() for a in fast_args]
    module, _ = build()
    with caplog.at_level(logging.DEBUG, logger=LOGGER):
        Interpreter(module).call("f", *fast_args)
    module_s, _ = build()
    Interpreter(module_s, compiled=False, vectorize=False).call(
        "f", *scalar_args
    )
    return fast_args, scalar_args, caplog.records


def _build_memref_min_reduction(n: int):
    """s[] = min(s[], x[i]) — the memref-accumulator reduction shape."""
    module = builtin.ModuleOp()
    fn = func.FuncOp(
        "f", FunctionType([MemRefType(f32, [n]), MemRefType(f32, [])], [])
    )
    module.body.add_op(fn)
    b = Builder.at_end(fn.body)
    lb, ub, step = _index_constants(b, 0, n, 1)
    loop = b.insert(scf.For(lb, ub, step))
    inner = Builder.at_end(loop.body)
    x, s = fn.body.args
    sv = inner.insert(memref.Load(s, [])).results[0]
    xv = inner.insert(memref.Load(x, [loop.induction_var])).results[0]
    combined = inner.insert(arith.MinF(sv, xv)).results[0]
    inner.insert(memref.Store(combined, s, []))
    inner.insert(scf.Yield())
    b.insert(func.ReturnOp())
    return module, loop


def _build_rank2_min_nest(n: int):
    """c[i] = min(c[i], a[i,j]) under a rank-2 nest: an innermost-dim
    min reduction fold (``nest_reduction`` with a min combiner)."""
    module = builtin.ModuleOp()
    mat = MemRefType(f32, [n, n])
    vec = MemRefType(f32, [n])
    fn = func.FuncOp("f", FunctionType([mat, vec], []))
    module.body.add_op(fn)
    b = Builder.at_end(fn.body)
    lb, ub, step = _index_constants(b, 0, n - 1, 1)
    nest = b.insert(omp.LoopNestOp([lb, lb], [ub, ub], [step, step]))
    inner = Builder.at_end(nest.body)
    i, j = nest.body.args
    a_arg, c_arg = fn.body.args
    cv = inner.insert(memref.Load(c_arg, [i])).results[0]
    av = inner.insert(memref.Load(a_arg, [i, j])).results[0]
    folded = inner.insert(arith.MinF(cv, av)).results[0]
    inner.insert(memref.Store(folded, c_arg, [i]))
    inner.insert(omp.YieldOp())
    b.insert(func.ReturnOp())
    return module, nest


class TestMemrefReductionNanBail:
    def test_nan_bail_logged_and_scalar_identical(self, caplog):
        n = 256

        def build():
            return _build_memref_min_reduction(n)

        def args(rng):
            x = rng.standard_normal(n).astype(np.float32)
            x[17] = np.nan
            return [x, np.array(1e5, dtype=np.float32)]

        fast, scalar, records = _run_both_tiers(build, args, caplog)
        assert fast[1].tobytes() == scalar[1].tobytes()
        assert any(
            "bail-out" in r.message and "NaN" in r.message for r in records
        )


class TestNestReductionNanBail:
    def test_nan_bail_logged_and_scalar_identical(self, caplog):
        n = 16  # 256 innermost iterations: above the trip threshold

        def build():
            return _build_rank2_min_nest(n)

        def args(rng):
            a = rng.standard_normal((n, n)).astype(np.float32)
            a[3, 5] = np.nan
            return [a, np.full(n, 1e5, dtype=np.float32)]

        # sanity: without the NaN the nest classifies as a min reduction
        from repro.ir.vectorize import _nest_vector_plan

        _, nest = _build_rank2_min_nest(n)
        mode, plan, _, _ = _nest_vector_plan(nest)
        assert mode == "nest_reduction"
        assert plan.reduction.op_name == "arith.minimumf"

        fast, scalar, records = _run_both_tiers(build, args, caplog)
        assert fast[1].tobytes() == scalar[1].tobytes()
        assert any(
            "bail-out" in r.message and "NaN" in r.message for r in records
        )


class TestChunkedMinMaxSizeBoundBail:
    def test_size_bound_bail_logged_and_scalar_identical(
        self, caplog, monkeypatch
    ):
        """Whole-space min/max needs its NaN check in one pass; when the
        space exceeds the size bound (forced tiny here) the nest must
        take the reasoned size-bound bail, not a chunked partial fold."""
        import repro.ir.vectorize as vectorize

        monkeypatch.setattr(vectorize, "_MAX_NEST_ELEMS", 64)
        n = 16

        def build():
            return _build_rank2_min_nest(n)

        def args(rng):
            return [
                rng.standard_normal((n, n)).astype(np.float32),
                np.full(n, 1e5, dtype=np.float32),
            ]

        fast, scalar, records = _run_both_tiers(build, args, caplog)
        assert fast[1].tobytes() == scalar[1].tobytes()
        assert any(
            "size bound" in r.message and "bail-out" in r.message
            for r in records
        )


class TestScfChainNestBail:
    def test_chain_bail_logged_and_scalar_identical(self, caplog):
        """A perfect scf.for chain whose store couples both IVs bails
        with a reasoned log, then reruns scalar with last-write-wins
        order preserved bit for bit.  Since PR 7 the segmented
        classifier inspects the pair after the whole-space nest path
        gives up, so the recorded reason is its ``segmented nest``
        bail (the coupled store is no per-row accumulator)."""
        n = 16

        def build():
            module = builtin.ModuleOp()
            fn = func.FuncOp(
                "f", FunctionType([MemRefType(f32, [2 * n + 2])], [])
            )
            module.body.add_op(fn)
            b = Builder.at_end(fn.body)
            lb, ub, step = _index_constants(b, 0, n, 1)
            root = b.insert(scf.For(lb, ub, step))
            outer = Builder.at_end(root.body)
            inner_loop = outer.insert(scf.For(lb, ub, step))
            outer.insert(scf.Yield())
            inner = Builder.at_end(inner_loop.body)
            coupled = inner.insert(
                arith.AddI(root.induction_var, inner_loop.induction_var)
            ).results[0]
            as_f = inner.insert(arith.SIToFP(coupled, f32)).results[0]
            inner.insert(memref.Store(as_f, fn.body.args[0], [coupled]))
            inner.insert(scf.Yield())
            b.insert(func.ReturnOp())
            return module, root

        def args(rng):
            return [np.full(2 * n + 2, -1.0, np.float32)]

        fast, scalar, records = _run_both_tiers(build, args, caplog)
        assert fast[0].tobytes() == scalar[0].tobytes()
        assert any(
            "segmented nest" in r.message and "bail-out" in r.message
            for r in records
        )


def _build_tiled_rows(
    n: int,
    *,
    read_neighbour: bool = False,
    store_row_dim: bool = True,
    tile_from_row: bool = False,
):
    """GEMM's k-tiled nest, 0-based: for i, j: ``t = c[i, j]``; for kk =
    0, n, 8: for k = kk, min(kk + 8, n): ``t += a[i, k] * b[k, j]``;
    then ``c[i, j] = t``.  Each flag breaks one condition of the
    segmented plan: the prologue reads ``c[i, j + 1]``, the epilogue
    writes ``c[i, 0]``, or the tile loop starts at ``i``."""
    module = builtin.ModuleOp()
    mat = MemRefType(f32, [n, n])
    fn = func.FuncOp(
        "f", FunctionType([mat, mat, MemRefType(f32, [n, n + 1])], [])
    )
    module.body.add_op(fn)
    a_arg, b_arg, c_arg = fn.body.args
    b = Builder.at_end(fn.body)
    zero, ub, one, tile = _index_constants(b, 0, n, 1, 8)
    t = b.insert(memref.Alloca(MemRefType(f32, []))).results[0]
    root = b.insert(scf.For(zero, ub, one))
    i = root.induction_var
    rows = Builder.at_end(root.body)
    j_loop = rows.insert(scf.For(zero, ub, one))
    rows.insert(scf.Yield())
    j = j_loop.induction_var
    row = Builder.at_end(j_loop.body)
    col = row.insert(arith.AddI(j, one)).results[0] if read_neighbour else j
    init = row.insert(memref.Load(c_arg, [i, col])).results[0]
    row.insert(memref.Store(init, t, []))
    kk_loop = row.insert(scf.For(i if tile_from_row else zero, ub, tile))
    folded = row.insert(memref.Load(t, [])).results[0]
    row.insert(memref.Store(folded, c_arg, [i, j if store_row_dim else zero]))
    row.insert(scf.Yield())
    kk = kk_loop.induction_var
    tiles = Builder.at_end(kk_loop.body)
    end = tiles.insert(arith.AddI(kk, tile)).results[0]
    k_ub = tiles.insert(arith.MinSI(end, ub)).results[0]
    k_loop = tiles.insert(scf.For(kk, k_ub, one))
    tiles.insert(scf.Yield())
    k = k_loop.induction_var
    inner = Builder.at_end(k_loop.body)
    tv = inner.insert(memref.Load(t, [])).results[0]
    av = inner.insert(memref.Load(a_arg, [i, k])).results[0]
    bv = inner.insert(memref.Load(b_arg, [k, j])).results[0]
    prod = inner.insert(arith.MulF(av, bv)).results[0]
    acc = inner.insert(arith.AddF(tv, prod)).results[0]
    inner.insert(memref.Store(acc, t, []))
    inner.insert(scf.Yield())
    b.insert(func.ReturnOp())
    return module, root


class TestTiledRowsBail:
    """The segmented plan's three conditions on gemm's k-tiled nest:
    each broken one is a reasoned bail of the root, and the scalar walk
    it falls back to stays bit-identical."""

    n = 20

    def _args(self, rng):
        n = self.n
        return [
            rng.standard_normal((n, n)).astype(np.float32),
            rng.standard_normal((n, n)).astype(np.float32),
            rng.standard_normal((n, n + 1)).astype(np.float32),
        ]

    def test_unbroken_nest_classifies_segmented(self):
        _, root = _build_tiled_rows(self.n)
        assert loop_vector_mode(root)[0] == "nest_segmented"

    def _assert_bail(self, caplog, reason, **flags):
        def build():
            return _build_tiled_rows(self.n, **flags)

        _, root = build()
        assert loop_vector_mode(root)[0] is None
        fast, scalar, records = _run_both_tiers(build, self._args, caplog)
        assert fast[2].tobytes() == scalar[2].tobytes()
        assert any(
            "segmented nest" in r.message and reason in r.message
            for r in records
        )

    def test_prologue_reads_a_neighbour_cell(self, caplog):
        self._assert_bail(
            caplog,
            "prologue reads a cell other than the one its row writes back",
            read_neighbour=True,
        )

    def test_epilogue_store_misses_a_row_dim(self, caplog):
        self._assert_bail(
            caplog, "epilogue store misses a row dim", store_row_dim=False
        )

    def test_tile_bounds_vary_with_a_row_iv(self, caplog):
        self._assert_bail(
            caplog, "tile loop bounds vary with a row IV", tile_from_row=True
        )


class TestWrappedAliasScatterBail:
    def test_negative_subscript_alias_bails(self, caplog):
        """The scalar engine and NumPy both wrap a negative subscript
        ``s`` to ``extent + s``, so ``-1`` and ``n - 1`` are distinct
        values but one cell.  The injectivity proof must decline, and
        the scalar rerun keeps the two lanes' write order."""
        n = 64

        def args(rng):
            idx = rng.permutation(n).astype(np.int32)
            idx[idx == 0] = -1  # cell n - 1 is now written by two lanes
            return [
                rng.standard_normal(n).astype(np.float32),
                idx,
                np.zeros(n, np.float32),
            ]

        fast, scalar, records = _run_both_tiers(
            lambda: _scatter_module(n), args, caplog
        )
        assert fast[2].tobytes() == scalar[2].tobytes()
        assert any(
            "failed the injectivity proof" in r.message
            and "negative entry" in r.message
            for r in records
        )

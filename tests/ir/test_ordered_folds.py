"""Periodic cells, column folds, ``take`` gathers and tiled-row views.

Four whole-space paths replace passes that did the same work at a higher
cost: an ``arith.remsi`` of a range with no negative value by a positive
literal tiles one period instead of dividing the materialised range
(dot's round-robin cell ``mod(i - 1, N)``); an equal-width add or
multiply fold runs column by column over blocks of rows when rows
outnumber the width, and as one row-wise ``accumulate`` otherwise; a
rank-1 load subscripted by an index array reads through
``ndarray.take``; and a tiled inner level whose tiles run back to back
(gemm's k) evaluates over ranges on the axes of a ``(rows..., k)``
broadcast space, so its loads read views.

Each case runs on the four engine tiers and must agree bit for bit in
its outputs, interpreter steps, ``device_time_ms`` and
``kernel_cycles``.  Its vectorizer modes are pinned at the values they
had before these paths existed, so no case passes by leaving the
whole-space tier, and a spy on the vectorizer's helpers shows that the
case reaches the path it names.
"""

from collections import defaultdict

import numpy as np
import pytest

import repro.ir.vectorize as vectorize
from repro.ir.vectorize import loop_vector_mode
from repro.pipeline import compile_fortran
from repro.reliability import ReproError, SubscriptError
from repro.session import KernelOverrides, Session
from repro.workloads import get_workload
from repro.workloads.gemm import gemm_source

#: (compiled, vectorize) — scalar ground truth first
TIERS = ((False, False), (False, True), (True, False), (True, True))
#: the tiers that run the whole-space paths, each once per case
VECTOR_TIERS = sum(vectorize_on for _, vectorize_on in TIERS)

_HEAD = """
subroutine {name}({args})
  implicit none
  integer, intent(in) :: {sizes}
{decls}
  integer :: i, j
!$omp target parallel do
  do i = 1, {bound}
{body}
  end do
!$omp end target parallel do
end subroutine {name}
"""


def _kernel(name, args, sizes, decls, bound, body):
    return _HEAD.format(
        name=name, args=args, sizes=sizes, decls=decls, bound=bound,
        body=body,
    )


def _row_fold(name, element, combine):
    """``s(i) = combine(s(i), a(i, j))`` over an (m, n) matrix: one
    equal-width fold per row, ``m`` rows of width ``n``."""
    return _kernel(
        name, "a, s, m, n", "m, n",
        f"  {element}, intent(in) :: a(m, n)\n"
        f"  {element}, intent(inout) :: s(m)",
        "m",
        f"    do j = 1, n\n      s(i) = {combine}\n    end do",
    )


#: the periodic cells: i steps by 2, so (i + 3) mod 4 has period 2;
#: (i - 10) mod 4 starts negative and keeps remsi's truncating sign
LANES = _kernel(
    "lanes", "x, p, n", "n",
    "  real, intent(in) :: x(n)\n  real, intent(inout) :: p(4)",
    "n, 2",
    "    p(mod(i + 3, 4) + 1) = p(mod(i + 3, 4) + 1) + x(i)",
)
SIGNED = _kernel(
    "signed", "x, p, n", "n",
    "  real, intent(in) :: x(n)\n  real, intent(inout) :: p(7)",
    "n",
    "    p(mod(i - 10, 4) + 4) = p(mod(i - 10, 4) + 4) + x(i)",
)

FOLDS = {
    "addf": (_row_fold("rowsum", "real", "s(i) + a(i, j)"), "arith.addf"),
    "mulf": (_row_fold("rowprod", "real", "s(i) * a(i, j)"), "arith.mulf"),
    "addi": (_row_fold("rowsumi", "integer", "s(i) + a(i, j)"), "arith.addi"),
}
ROW_MIN = _row_fold("rowmin", "real", "min(s(i), a(i, j))")

#: out-of-range and wrapping subscripts: a gather through an index array
#: (the ``take`` path) and a scatter through one
_INDEXED = (
    "  real, intent(in) :: x(n)\n  integer, intent(in) :: idx(n)\n"
    "  real, intent(inout) :: y(n)"
)
GATHER = _kernel(
    "gather", "x, idx, y, n", "n", _INDEXED, "n", "    y(i) = x(idx(i))"
)
SCATTER = _kernel(
    "scatter", "x, idx, y, n", "n", _INDEXED, "n", "    y(idx(i)) = x(i)"
)
#: a fold into the cells idx(i) of y: the scalar walk's load of the cell
#: meets a bad subscript first
CELLS = _kernel(
    "cells", "x, idx, y, n", "n", _INDEXED, "n",
    "    y(idx(i)) = y(idx(i)) + x(i)",
)

_PROGRAMS: dict = {}


def _program(source: str, **overrides):
    key = (source, tuple(sorted(overrides.items())))
    if key not in _PROGRAMS:
        if overrides:
            _PROGRAMS[key] = Session(source).program(
                KernelOverrides(**overrides)
            )
        else:
            _PROGRAMS[key] = compile_fortran(source)
    return _PROGRAMS[key]


def _modes(program) -> list:
    return [
        loop_vector_mode(op)[0]
        for op in program.device_module.walk()
        if op.name == "scf.for"
    ]


def _run(program, entry: str, args, tier):
    compiled, vectorize_on = tier
    args = [np.array(a, copy=True) for a in args]
    result = program.executor(compiled=compiled, vectorize=vectorize_on).run(
        entry, *args
    )
    return (
        [a.tobytes() for a in args],
        result.interpreter_steps,
        result.device_time_ms,
        result.kernel_cycles,
    )


def _agree(program, entry: str, args, tiers=TIERS):
    """Run on every tier; all outcomes must be identical."""
    outcomes = [_run(program, entry, args, tier) for tier in tiers]
    assert all(o == outcomes[0] for o in outcomes[1:])
    return outcomes[0]


@pytest.fixture
def spy(monkeypatch):
    """``{helper: [(args, result), ...]}`` for the vectorizer helpers
    that each path goes through (module globals and ``_Range``'s
    methods are looked up when called, so patching them is enough)."""
    calls = defaultdict(list)

    def wrap(owner, name):
        real = getattr(owner, name)

        def recording(*args):
            result = real(*args)
            calls[name].append((args, result))
            return result

        monkeypatch.setattr(owner, name, recording)

    for name in (
        "_gather", "_view", "_fold_columns", "_ordered_fold",
        "_trunc_remainder",
    ):
        wrap(vectorize, name)
    wrap(vectorize._Range, "remainder")
    return calls


# ---------------------------------------------------------------------------
# Periodic cells
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1000, 1001])
@pytest.mark.parametrize("copies", [1, 2, 3, 5, 8])
def test_dot_cells_tile_one_period(spy, copies, n):
    """dot's round-robin cell ``mod(i - 1, copies)`` tiles its period
    instead of dividing the range, on every tier, and the result is the
    round-robin reference's."""
    from repro.workloads import dot_reference

    workload = get_workload("dot")
    program = _program(workload.source, reduction_copies=copies)
    assert _modes(program) == ["memref_reduction"]
    instance = workload.instance(n, 3)
    outputs, *_ = _agree(program, workload.entry, instance.args)
    x, y = instance.args[:2]
    want = np.array(dot_reference(x, y, copies), dtype=np.float32)
    assert outputs[2] == want.tobytes()
    tiled = [(r, c) for (r, c), out in spy["remainder"] if out is not None]
    assert tiled and all(c == copies and r.start == 0 for r, c in tiled)
    assert not spy["_trunc_remainder"]


def test_stepped_offset_cell_tiles_its_period(spy):
    """``mod(i + 3, 4)`` over i = 1, 3, 5, ... has period 4 / gcd(2, 4)
    = 2 and lands every odd i on cells 0 and 2."""
    program = _program(LANES)
    assert _modes(program) == ["memref_reduction"]
    n = 1001
    x = np.random.default_rng(1).standard_normal(n).astype(np.float32)
    p = np.zeros(4, np.float32)
    outputs, *_ = _agree(program, "lanes", [x, p, np.array(n, np.int32)])
    tiled = [(r, c) for (r, c), out in spy["remainder"] if out is not None]
    assert tiled and all(r.step == 2 and c == 4 for r, c in tiled)
    assert not spy["_trunc_remainder"]
    folded = np.frombuffer(outputs[1], np.float32)
    assert folded[1] == folded[3] == 0.0 and folded[0] != 0.0


def test_negative_cell_keeps_the_truncating_sign(spy):
    """``mod(i - 10, 4)`` from i = 1 starts at -9, where remsi's
    remainder is negative: the range declines the period and divides as
    before, and the cells land where the scalar walk puts them."""
    program = _program(SIGNED)
    assert _modes(program) == ["memref_reduction"]
    n = 500
    x = np.random.default_rng(2).standard_normal(n).astype(np.float32)
    p = np.zeros(7, np.float32)
    outputs, *_ = _agree(program, "signed", [x, p, np.array(n, np.int32)])
    assert spy["remainder"] and all(
        out is None for _, out in spy["remainder"]
    )
    assert spy["_trunc_remainder"]
    # cells -3 .. 3 are p(1) .. p(7): the negative ones were reached
    assert np.frombuffer(outputs[1], np.float32)[0] != 0.0


# ---------------------------------------------------------------------------
# Equal-width folds: columns when rows outnumber the width, else rows
# ---------------------------------------------------------------------------


def _fold_args(kind: str, m: int, n: int):
    rng = np.random.default_rng(m * 7 + n)
    if kind == "addi":
        a = rng.integers(-50, 50, (m, n)).astype(np.int32)
        s = rng.integers(-50, 50, m).astype(np.int32)
    elif kind == "mulf":
        # near 1, so long products neither vanish nor overflow
        a = (1 + rng.standard_normal((m, n)) / 64).astype(np.float32)
        s = (1 + rng.standard_normal(m) / 64).astype(np.float32)
    else:
        a = rng.standard_normal((m, n)).astype(np.float32)
        s = rng.standard_normal(m).astype(np.float32)
    return [a, s, np.array(m, np.int32), np.array(n, np.int32)]


@pytest.mark.parametrize("m, n, columns", [(512, 8, True), (4, 4096, False)])
@pytest.mark.parametrize("kind", sorted(FOLDS))
def test_equal_width_fold_picks_the_shorter_axis(spy, kind, m, n, columns):
    source, combiner = FOLDS[kind]
    program = _program(source)
    assert _modes(program) == ["nest_reduction", "memref_reduction"]
    assert combiner in {
        op.name for op in program.device_module.walk()
    }
    entry = source.split("subroutine ", 1)[1].split("(", 1)[0]
    _agree(program, entry, _fold_args(kind, m, n))
    folds = [args for args, out in spy["_ordered_fold"] if out]
    assert folds and all(args[-1] == n for args in folds)  # the width
    assert bool(spy["_fold_columns"]) is columns


def test_min_fold_with_a_nan_still_declines(spy):
    """A NaN meets np.minimum, which propagates it where the scalar
    engine's min ignores a NaN rhs: the fold declines and the loop
    reruns scalar."""
    program = _program(ROW_MIN)
    assert _modes(program) == ["nest_reduction", "memref_reduction"]
    assert "arith.minimumf" in {
        op.name for op in program.device_module.walk()
    }
    args = _fold_args("addf", 512, 8)
    args[0][3, 5] = np.nan
    _agree(program, "rowmin", args)
    assert spy["_ordered_fold"] and not any(
        out for _, out in spy["_ordered_fold"]
    )
    assert not spy["_fold_columns"]


# ---------------------------------------------------------------------------
# The kernels: tiled-row views, N-d column folds and the take gather
# ---------------------------------------------------------------------------


#: the (i, j) root plans the whole nest; its tile loop never plans
GEMM_MODES = ["nest_segmented", "nest_segmented", None, "memref_reduction"]
#: every k tile of gemm runs back to back; the gapped variant stops each
#: tile half way, so its inner IVs stay a concatenated vector
GAPPED = gemm_source(tile=16).replace("min(kk + 15, n)", "min(kk + 7, n)")


def _gemm_args(n: int):
    rng = np.random.default_rng(100 + n)
    mats = [rng.standard_normal((n, n)).astype(np.float32) for _ in range(3)]
    return [*mats, np.array(n, np.int32)]


#: at gemm's benchmark sizes the scalar walk takes 10-35 s a run, so the
#: block-JIT walk, which agrees with it at the small sizes, stands in
JIT_AND_VECTOR = TIERS[1:]


@pytest.mark.parametrize("n, tile, tiers", [
    (10, 64, TIERS),
    (20, 16, TIERS),
    (64, 64, JIT_AND_VECTOR),
    (64, 16, JIT_AND_VECTOR),
    pytest.param(100, 64, JIT_AND_VECTOR, marks=pytest.mark.slow),
    pytest.param(100, 16, JIT_AND_VECTOR, marks=pytest.mark.slow),
])
def test_tiled_gemm_reads_views(spy, n, tile, tiers):
    """Each (i, j) row runs its k tiles back to back, the min() edge
    included (n = 10, 20 and 100): a(i, k) and b(k, j) load as views of
    a (i, j, k) space and the rows fold column by column from c(i, j)."""
    from repro.workloads.gemm import gemm_reference

    program = _program(gemm_source(tile=tile))
    assert _modes(program) == GEMM_MODES
    args = _gemm_args(n)
    outputs, *_ = _agree(program, "gemm_tiled", args, tiers)
    assert outputs[2] == gemm_reference(*args[:3]).tobytes()
    views = [out.shape for _, out in spy["_view"] if out is not None]
    assert sorted(views) == sorted([(1, n, n), (n, 1, n)] * VECTOR_TIERS)
    assert [args[-1].shape for args, _ in spy["_fold_columns"]] == [
        (n, n, n)
    ] * VECTOR_TIERS


def test_gapped_tiles_gather(spy):
    """Tiles that do not run back to back keep their k values as one
    concatenated vector on the space's last axis, which gathers."""
    program = _program(GAPPED)
    assert _modes(program) == GEMM_MODES
    n = 24
    _agree(program, "gemm_tiled", _gemm_args(n))
    assert not any(out is not None for _, out in spy["_view"])
    assert spy["_fold_columns"]


def test_batched_gemm_folds_columns_in_place(spy):
    """batched_gemm's product over (ib, i, j, k) folds along k without
    being flattened first."""
    workload = get_workload("batched_gemm")
    program = _program(workload.source)
    assert _modes(program) == [
        "nest_reduction", "nest_reduction", "nest_reduction",
        "memref_reduction",
    ]
    instance = workload.instance(8, 1)
    outputs, *_ = _agree(program, workload.entry, instance.args)
    assert outputs[2] == instance.expected[2].tobytes()
    shapes = [args[-1].shape for args, _ in spy["_fold_columns"]]
    assert shapes == [(4, 8, 8, 8)] * VECTOR_TIERS


def test_spmv_gathers_through_take(spy):
    """spmv's ``x(col_idx(jj))`` reads through ``take``, and its
    equal-width rows fold column by column."""
    workload = get_workload("spmv")
    program = _program(workload.source)
    assert _modes(program) == ["nest_segmented", "memref_reduction"]
    n = 256
    instance = workload.instance(n, 1)
    outputs, *_ = _agree(program, workload.entry, instance.args)
    assert outputs[4] == instance.expected[4].tobytes()
    gathers = [
        args[1] for args, _ in spy["_gather"]
        if type(args[1]) is np.ndarray and args[1].size == n * 72
    ]
    assert len(gathers) == VECTOR_TIERS
    assert spy["_fold_columns"]


# ---------------------------------------------------------------------------
# Subscripts that leave their buffer
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("source, entry, mode, op", [
    (GATHER, "gather", "nest_segmented", "memref.load"),
    (SCATTER, "scatter", "scatter_store", "memref.store"),
    (CELLS, "cells", "memref_reduction", "memref.load"),
])
@pytest.mark.parametrize("bad", ["past_end", "wraps"])
def test_subscript_errors_are_typed_on_every_tier(source, entry, mode, op, bad):
    """A subscript past the end raises one typed error, with the same
    message, on every tier; a negative one still wraps onto the end."""
    program = _program(source)
    assert _modes(program) == [mode]
    n = 100
    idx = np.arange(n, 0, -1, dtype=np.int32)  # a permutation of 1..n
    idx[37] = n + 1 if bad == "past_end" else 0
    args = [
        np.arange(n, dtype=np.float32), idx, np.zeros(n, np.float32),
        np.array(n, np.int32),
    ]
    if bad == "wraps":
        _agree(program, entry, args)
        return
    messages = []
    for tier in TIERS:
        with pytest.raises(SubscriptError) as info:
            _run(program, entry, args, tier)
        assert isinstance(info.value, ReproError)
        assert isinstance(info.value, IndexError)
        assert info.value.stage == "execution"
        messages.append(str(info.value))
    assert all(m == messages[0] for m in messages)
    assert messages[0].startswith(f"{op}: index {n} is out of bounds")

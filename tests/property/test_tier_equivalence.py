"""Cross-tier conformance: every gallery workload, every engine tier.

The execution engine has three tiers (scalar interpreter, block-JIT,
NumPy loop vectorization — ROADMAP "Performance architecture").  This
suite runs every registered workload under all four
``compiled × vectorize`` combinations and asserts

* bit-identical output buffers (and bit-exact match with the workload's
  NumPy reference),
* identical ``Interpreter.steps`` accounting, and
* identical modelled ``device_time_ms`` / ``kernel_cycles``

so no engine fast path can silently change results or the paper's
modelled numbers.
"""

import numpy as np
import pytest

from repro.workloads import all_workloads, get_workload

#: (compiled, vectorize) — scalar ground truth first.
TIERS = ((False, False), (False, True), (True, False), (True, True))

#: workloads whose scalar-tier smoke run is multi-second (the tiled GEMM
#: interprets ~4M ops twice under vectorize=False)
_SLOW_SCALAR = {"gemm"}

_PROGRAMS: dict[str, object] = {}


def _program(name: str):
    if name not in _PROGRAMS:
        _PROGRAMS[name] = get_workload(name).compile()
    return _PROGRAMS[name]


def _workload_params():
    for workload in all_workloads():
        marks = (
            [pytest.mark.slow] if workload.name in _SLOW_SCALAR else []
        )
        yield pytest.param(workload.name, marks=marks)


@pytest.mark.parametrize("name", _workload_params())
def test_tiers_bit_identical(name):
    workload = get_workload(name)
    program = _program(name)
    observed = []
    for compiled, vectorize in TIERS:
        result, instance = workload.run(
            program, compiled=compiled, vectorize=vectorize
        )
        # every tier matches the NumPy reference bit for bit
        workload.check(instance)
        outputs = {
            pos: np.asarray(arg).tobytes()
            for pos, arg in instance.outputs().items()
        }
        observed.append(((compiled, vectorize), result, outputs))

    _, scalar_result, scalar_outputs = observed[0]
    for (tier, result, outputs) in observed[1:]:
        assert outputs == scalar_outputs, f"tier {tier}: outputs differ"
        assert result.interpreter_steps == scalar_result.interpreter_steps, (
            f"tier {tier}: steps {result.interpreter_steps} != "
            f"{scalar_result.interpreter_steps}"
        )
        assert result.device_time_ms == scalar_result.device_time_ms, (
            f"tier {tier}: device_time_ms diverged"
        )
        assert result.kernel_cycles == scalar_result.kernel_cycles, (
            f"tier {tier}: kernel_cycles diverged"
        )
        assert result.launches == scalar_result.launches


def test_histogram_scatter_kernels_vectorize():
    """Guard against silent scalar fallback: the histogram's two device
    loops must classify as the collision-tolerant ``ufunc.at`` reduction
    and the injectivity-proved scatter store — a regression here would
    keep this suite green (the scalar walk is always correct) while
    silently losing the fast tier."""
    from repro.ir.vectorize import loop_vector_mode

    program = _program("histogram")
    modes = [
        loop_vector_mode(op)[0]
        for op in program.device_module.walk()
        if op.name == "scf.for"
    ]
    assert sorted(m for m in modes if m is not None) == [
        "memref_reduction", "scatter_store",
    ]


def _device_root_mode(name: str) -> str | None:
    """Vectorizer classification of the outermost device loop."""
    from repro.ir.vectorize import loop_vector_mode

    program = _program(name)
    for op in program.device_module.walk():
        if op.name == "scf.for":
            return loop_vector_mode(op)[0]
    return None


@pytest.mark.parametrize(
    "name, expected_mode",
    [
        ("heat3d", "nest_elementwise"),
        ("batched_gemm", "nest_reduction"),
        ("jacobi2d", "nest_elementwise"),
        ("gemm", "nest_segmented"),
    ],
)
def test_rank_n_nests_vectorize_whole_space(name, expected_mode):
    """Guard against silent scalar fallback for ``collapse(n)`` nests:
    the outermost device loop of each nest workload must classify as a
    whole-space nest evaluation — heat3d's rank-3 elementwise stencil,
    batched_gemm's rank-3 nest with the in-place k reduction folded
    along the innermost dim, jacobi2d's rank-2 stencil, and gemm's
    (i, j) rows over its k-tiled fold with the in-place write-back of
    c(i, j)."""
    assert _device_root_mode(name) == expected_mode


_SESSIONS: dict[str, object] = {}

_NR, _MR, _NE, _NS, _SS = (
    "nest_reduction", "memref_reduction", "nest_elementwise",
    "nest_segmented", "scatter_store",
)


@pytest.mark.parametrize(
    "name, simdlen, expected_modes",
    [
        # the collapse(3) nest with its in-place k reduction; at simdlen
        # > 1 the k loop's main/remainder pair reads and writes c, so it
        # does not stitch, the outer levels bail and the k loops fold on
        # their own
        ("batched_gemm", None, [_NR, _NR, _NR, _MR]),
        ("batched_gemm", 2, [None, None, None, _MR, _MR, _NR, _MR]),
        ("batched_gemm", 4,
         [None, None, None, _MR, _MR, _MR, _MR, _NR, _MR]),
        ("dot", None, [_MR]),
        ("dot", 2, [None, _MR]),
        ("dot", 4, [None, _MR]),
        # the k-tiled nest runs whole-space from its root: rows (i, j),
        # the tiled k level, and c(i, j) written back in place; the j
        # loop plans the same nest one level down, and the kk loop alone
        # is no nest.  At simdlen > 1 the j loop splits into an unrolled
        # main loop, which stays on the scalar walk with its per-lane
        # k folds, and a remainder, which is a segmented nest again
        ("gemm", None, [_NS, _NS, None, _MR]),
        ("gemm", 2, [None, None, None, _MR, None, _MR, _NS, None, _MR]),
        ("gemm", 4,
         [None, None, None, _MR, None, _MR, None, _MR, None, _MR, _NS,
          None, _MR]),
        ("histogram", None, [_MR, _SS]),
        ("histogram", 2, [None, _MR, None, _SS]),
        ("histogram", 4, [None, _MR, None, _SS]),
        # the rank-3 chain root and its middle level classify whole-space;
        # the runtime-bounded innermost loops are spans
        ("heat3d", None, [_NE, _NE, _NS]),
        ("heat3d", 2, [_NE, _NE, _NS, _NS]),
        ("heat3d", 4, [_NE, _NE, _NS, _NS]),
        ("jacobi2d", None, [_NE, _NS]),
        ("jacobi2d", 2, [_NE, _NS, _NS]),
        ("jacobi2d", 4, [_NE, _NS, _NS]),
        # runtime-bounded rank-1 spans (the loop bound is loaded)
        ("saxpy", None, [_NS, _NS]),
        ("saxpy", 2, [_NS, _NS]),
        ("saxpy", 4, [_NS, _NS]),
        ("sgesl", None, [_NS, _NS]),
        ("sgesl", 2, [_NS, _NS, _NS, _NS]),
        ("sgesl", 4, [_NS, _NS, _NS, _NS]),
        # the CSR row loop is the segmented nest; its inner reduction
        # loop classifies on its own but is subsumed by the row plan
        ("spmv", None, [_NS, _MR]),
        ("spmv", 2, [None, _MR, _MR, _NS, _MR]),
        ("spmv", 4, [None, _MR, _MR, _MR, _MR, _NS, _MR]),
    ],
)
def test_segmented_kernels_vectorize(name, simdlen, expected_modes):
    """Guard against silent scalar fallback on every gallery loop: the
    vectorizer mode of each device ``scf.for``, in walk order and with
    the loops that stay scalar (``None``) included, is pinned for every
    workload at ``simdlen`` None, 2 and 4.  A regression here keeps the
    conformance suite green (the scalar walk is always correct) while
    silently losing the fast tier (spmv's imperfect nest once bailed,
    and sgesl's runtime trip counts once never reached the
    ``_MIN_TRIPS`` floor check, with nothing failing)."""
    from repro.ir.vectorize import loop_vector_mode
    from repro.session import KernelOverrides, Session

    if simdlen is None:
        program = _program(name)
    else:
        session = _SESSIONS.setdefault(
            name, Session(get_workload(name).source)
        )
        program = session.program(KernelOverrides(simdlen=simdlen))
    modes = [
        loop_vector_mode(op)[0]
        for op in program.device_module.walk()
        if op.name == "scf.for"
    ]
    assert modes == expected_modes


def test_simdlen_unroll_pair_stitches_back_whole_space():
    """DSE sweeps at ``simdlen > 1`` split each loop into a chunked main
    loop plus a remainder; the nest planner must stitch the pair back
    into one whole-space plan (classifying the *root*) instead of
    dropping to per-row dispatch — and the stitched run must stay bit
    identical to the scalar walk in outputs and modelled metrics."""
    from repro.ir.pass_manager import Instrumentation
    from repro.ir.vectorize import loop_vector_mode
    from repro.session import KernelOverrides, Session

    workload = get_workload("jacobi2d")
    session = Session(workload.source, instrumentation=Instrumentation())
    program = session.program(KernelOverrides(simdlen=4))
    root = next(
        op for op in program.device_module.walk() if op.name == "scf.for"
    )
    mode, plan = loop_vector_mode(root)
    assert mode == "nest_elementwise"
    assert any(level.stitch is not None for level in plan.chain)

    observed = []
    for compiled, vectorize in TIERS:
        result, instance = workload.run(
            program, compiled=compiled, vectorize=vectorize, seed=3
        )
        workload.check(instance)
        outputs = {
            pos: np.asarray(arg).tobytes()
            for pos, arg in instance.outputs().items()
        }
        observed.append((result, outputs))
    base_result, base_outputs = observed[0]
    for result, outputs in observed[1:]:
        assert outputs == base_outputs
        assert result.interpreter_steps == base_result.interpreter_steps
        assert result.device_time_ms == base_result.device_time_ms
        assert result.kernel_cycles == base_result.kernel_cycles


@pytest.mark.parametrize(
    "name", [w.name for w in all_workloads() if w.name not in _SLOW_SCALAR]
)
def test_fresh_seed_still_conforms(name):
    """A second seed (different data, same shapes) also holds across the
    two extreme tiers — guards against data-dependent fast-path bugs."""
    workload = get_workload(name)
    program = _program(name)
    result_scalar, inst_scalar = workload.run(
        program, seed=1, compiled=False, vectorize=False
    )
    result_fast, inst_fast = workload.run(
        program, seed=1, compiled=True, vectorize=True
    )
    for pos in inst_scalar.expected:
        assert (
            np.asarray(inst_scalar.args[pos]).tobytes()
            == np.asarray(inst_fast.args[pos]).tobytes()
        )
    assert result_scalar.interpreter_steps == result_fast.interpreter_steps
    assert result_scalar.kernel_cycles == result_fast.kernel_cycles

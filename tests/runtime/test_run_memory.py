"""Memory of one run, pinned with ``tracemalloc`` and the collector off.

A run's device buffers belong to its executor, so dropping the executor
must free them at once rather than when the cyclic garbage collector
next runs: no reference cycle may hold a run's frame or its kernel
runner.  And the whole-space tier evaluates a stencil over strided views
of its buffers, not over gathered copies indexed by full-space int64
vectors, and folds, gathers and periodic cells without copying their
operands first, which bounds the peak of one run.  ``tracemalloc``
counts the bytes Python and NumPy allocate exactly, so these are
deterministic gates, not timings.
"""

import gc
import tracemalloc
import weakref

import pytest

from repro.workloads import get_workload

MiB = 1 << 20


def _traced_run(name: str, n: int) -> tuple[int, int]:
    """``(peak, held)`` bytes of one run of ``name`` at size ``n`` on a
    fresh executor: the peak while it runs, and what is still allocated
    once the executor and its result are dropped."""
    workload = get_workload(name)
    program = workload.compile()
    # compiled functions and loop plans live with the module, not the run
    program.executor().run(workload.entry, *workload.instance(n, 1).args)
    instance = workload.instance(n, 1)
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        executor = program.executor()
        result = executor.run(workload.entry, *instance.args)
        peak = tracemalloc.get_traced_memory()[1] - base
        del executor, result
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
    workload.check(instance)
    return peak, held


def test_dropped_executor_sits_in_no_cycle():
    """With the collector off, dropping an executor after a run frees it,
    its kernel runner and the runner's interpreter at once.  A standing
    bound loop observer tied the runner and its interpreter in a cycle
    that only a collection freed."""
    workload = get_workload("saxpy")
    program = workload.compile()
    instance = workload.instance(workload.smoke_size, 1)
    enabled = gc.isenabled()
    gc.disable()
    try:
        executor = program.executor()
        executor.run(workload.entry, *instance.args)
        runner = executor._runner
        refs = [weakref.ref(o) for o in (executor, runner, runner._interp)]
        del executor, runner
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("name, n", [("heat3d", 64), ("saxpy", 1_000_000)])
def test_dropped_executor_holds_nothing(name, n):
    """While a compiled call's frame and its env referred to each other,
    the run's buffers stayed until a collection: 2.0 MiB for heat3d
    n=64, 7.6 MiB for saxpy n=1M."""
    _, held = _traced_run(name, n)
    assert held < MiB // 4, f"{name}: {held / MiB:.2f} MiB held"


@pytest.mark.parametrize(
    "name, n, bound_mib",
    [
        # index vectors and gathered copies peaked at 48.4 and 33.8 MiB;
        # views read 9.3 and 6.0 MiB
        ("heat3d", 64, 16),
        ("jacobi2d", 512, 12),
        # the round-robin cell materialised as a range and divided into
        # a second int64 vector: 26.7 MiB; one tiled period, 19.1 MiB
        ("dot", 1_000_000, 22),
        # a (rows, width + 1) copy of the products for a row-wise
        # accumulate: 33.1 MiB; folding by columns, 28.5 MiB
        ("spmv", 16384, 31),
        # (4096, 64) gathered operands and their index arrays: 5.4 MiB;
        # views of a (64, 64, 64) space, 1.3 MiB
        ("gemm", 64, 3),
        # a flattened copy of the product and the accumulate copy:
        # 16.8 MiB; columns folded in the product's own layout, 4.7 MiB
        ("batched_gemm", 64, 8),
    ],
)
def test_run_peak_is_bounded(name, n, bound_mib):
    peak, _ = _traced_run(name, n)
    assert peak < bound_mib * MiB, f"{name}: peak {peak / MiB:.1f} MiB"

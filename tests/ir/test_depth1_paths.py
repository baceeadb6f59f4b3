"""The depth-1 whole-space paths a kernel launch takes, at the trip
counts around the whole-space floor.

A rank-1 offloaded loop is sized and charged directly (no level lists),
its vector program reads each outer value once, and its compiled
function comes from the module's function table.  Each case runs the
device kernel on the four engine tiers and must agree with the scalar
walk bit for bit in outputs and steps, and in the multiset of loop
observations the cycle model prices.  A spy pins which cases the
whole-space tier took: a constant-bounded loop below 64 trips stays
scalar, a runtime-bounded span never does.
"""

from collections import Counter

import numpy as np
import pytest

from repro.ir import Interpreter
from repro.ir import vectorize
from repro.ir.vectorize import loop_vector_mode
from repro.pipeline import compile_fortran

#: (compiled, vectorize) — scalar ground truth first
TIERS = ((False, False), (False, True), (True, False), (True, True))

#: around ``_MIN_TRIPS`` (64): empty, one, just below, at and above
TRIPS = (0, 1, 63, 64, 65)

SIZE = 80

_SOURCE = """
subroutine axpy(x, y, n)
  implicit none
  integer, intent(in) :: n
  real, intent(in) :: x({size})
  real, intent(inout) :: y({size})
  integer :: i
!$omp target parallel do
  do i = 1, {stop}
    y(i) = y(i) + 2.0 * x(i)
  end do
!$omp end target parallel do
end subroutine axpy
"""


def _kernel(stop: str):
    program = compile_fortran(_SOURCE.format(size=SIZE, stop=stop))
    module = program.device_module
    (loop,) = [op for op in module.walk() if op.name == "scf.for"]
    return module, loop


def _run(module, compiled, vectorized, trips):
    rng = np.random.default_rng(trips)
    x = rng.standard_normal(SIZE).astype(np.float32)
    y = rng.standard_normal(SIZE).astype(np.float32)
    interp = Interpreter(module, compiled=compiled, vectorize=vectorized)
    # each tier has its own module: key a loop by its walk position
    position = {
        id(op): index
        for index, op in enumerate(
            op for op in module.walk() if op.name == "scf.for"
        )
    }
    observed = Counter()

    def observe(op, loop_trips, count):
        observed[(position[id(op)], loop_trips)] += count

    interp.loop_observer = observe
    n = np.array(trips, dtype=np.int32)
    args = {"n": n, "x": x, "y": y}
    kernel = interp.get_function("axpy_kernel_0")
    names = [arg.name_hint for arg in kernel.regions[0].block.args]
    interp.call("axpy_kernel_0", *[args[name] for name in names])
    return y, interp.steps, observed


@pytest.fixture
def handled(monkeypatch):
    """``[(entry, result)]`` of every rank-1 whole-space entry call."""
    calls = []
    for name in ("try_vectorized_loop", "try_vectorized_nest"):
        real = getattr(vectorize, name)

        def spy(*args, _real=real, _name=name):
            result = _real(*args)
            calls.append((_name, result))
            return result

        monkeypatch.setattr(vectorize, name, spy)
    return calls


@pytest.mark.parametrize("trips", TRIPS)
@pytest.mark.parametrize("kind", ["constant", "span"])
def test_depth1_loop_matches_the_scalar_walk(kind, trips, handled):
    stop = str(trips) if kind == "constant" else "n"
    results = []
    took = []
    for compiled, vectorized in TIERS:
        # a fresh module per tier: the JIT binds the entries (and so
        # the spy) when it first compiles the kernel
        module, loop = _kernel(stop)
        handled.clear()
        results.append(_run(module, compiled, vectorized, trips))
        took.append(any(result for _, result in handled))
    want_y, want_steps, want_observed = results[0]
    for y, steps, observed in results[1:]:
        assert y.tobytes() == want_y.tobytes()
        assert steps == want_steps
        assert observed == want_observed

    mode, _ = loop_vector_mode(loop)
    assert mode == ("elementwise" if kind == "constant" else "nest_segmented")
    # a constant-bounded loop below the floor declines, an empty or
    # runtime-bounded one never
    whole = kind == "span" or trips == 0 or trips >= 64
    assert took == [False, whole, False, whole]

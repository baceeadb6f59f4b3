"""A loop step that is zero or negative at run time.

Loops lower to an exclusive-bound ``scf.for`` or ``omp.loop_nest`` that
count up only, and the frontend rejects a non-positive constant step
(``tests/frontend/test_error_lines.py``).  A step computed at run time
raises :class:`~repro.reliability.LoopStepError` from the loop op on
every engine tier: before the loop observer fires and before the body
stores anything, where the scalar walk used to spin or wrap its
subscripts and the vectorized tiers ran zero trips.
"""

import numpy as np
import pytest

from repro.ir import Interpreter
from repro.pipeline import compile_fortran
from repro.reliability import LoopStepError, ReproError

#: (compiled, vectorize) — scalar ground truth first
TIERS = ((False, False), (False, True), (True, False), (True, True))

_SOURCE = """
subroutine stepped(y, z, n, s)
  implicit none
  integer, intent(in) :: n, s
  real, intent(inout) :: y(n)
  real, intent(inout) :: z(n, n)
  integer :: i, j
{body}
end subroutine stepped
"""

#: where the stepped loop runs -> its body
LOOPS = {
    "offloaded": (
        "!$omp target parallel do\n"
        "  do i = 1, n, s\n    y(i) = y(i) + 1.0\n  end do\n"
        "!$omp end target parallel do"
    ),
    "host": "  do i = 1, n, s\n    y(i) = y(i) + 1.0\n  end do",
    "host-parallel": (
        "!$omp parallel do\n"
        "  do i = 1, n, s\n    y(i) = y(i) + 1.0\n  end do\n"
        "!$omp end parallel do"
    ),
    "collapse-inner": (
        "!$omp parallel do collapse(2)\n"
        "  do i = 1, n\n    do j = 1, n, s\n"
        "      z(j, i) = z(j, i) + 1.0\n    end do\n  end do\n"
        "!$omp end parallel do"
    ),
    "offloaded-collapse-inner": (
        "!$omp target parallel do collapse(2)\n"
        "  do i = 1, n\n    do j = 1, n, s\n"
        "      z(j, i) = z(j, i) + 1.0\n    end do\n  end do\n"
        "!$omp end target parallel do"
    ),
}

N = 8


def _run(program, compiled, vectorized, step):
    y = np.arange(N, dtype=np.float32)
    z = np.zeros((N, N), dtype=np.float32)
    executor = program.executor(compiled=compiled, vectorize=vectorized)
    try:
        result = executor.run(
            "stepped", y, z, np.array(N, np.int32), np.array(step, np.int32)
        )
    except LoopStepError as error:
        return y, z, error
    return y, z, result.interpreter_steps


@pytest.mark.parametrize("step", [0, -1, -3])
@pytest.mark.parametrize("where", sorted(LOOPS))
def test_non_positive_step_raises_on_every_tier(where, step):
    program = compile_fortran(_SOURCE.format(body=LOOPS[where]))
    for tier in TIERS:
        y, z, outcome = _run(program, *tier, step)
        assert isinstance(outcome, LoopStepError), (tier, outcome)
        assert isinstance(outcome, ReproError)
        assert outcome.stage == "execution"
        assert f"step {step} is not positive" in str(outcome)
        # nothing was stored
        assert y.tobytes() == np.arange(N, dtype=np.float32).tobytes()
        assert not z.any()


@pytest.mark.parametrize("step", [1, 2, 3])
@pytest.mark.parametrize("where", sorted(LOOPS))
def test_positive_step_agrees_on_every_tier(where, step):
    program = compile_fortran(_SOURCE.format(body=LOOPS[where]))
    runs = [_run(program, *tier, step) for tier in TIERS]
    want_y, want_z, want_steps = runs[0]
    assert isinstance(want_steps, int)
    for y, z, steps in runs[1:]:
        assert y.tobytes() == want_y.tobytes()
        assert z.tobytes() == want_z.tobytes()
        assert steps == want_steps


@pytest.mark.parametrize("compiled", [False, True])
@pytest.mark.parametrize("vectorized", [False, True])
def test_step_error_fires_before_the_loop_observer(compiled, vectorized):
    """The kernel runner prices loops from its observer: a loop that
    raises for its step leaves no observation behind."""
    program = compile_fortran(_SOURCE.format(body=LOOPS["offloaded"]))
    interp = Interpreter(
        program.device_module, compiled=compiled, vectorize=vectorized
    )
    observed = []
    interp.loop_observer = lambda op, trips, count: observed.append(trips)
    (kernel,) = interp.functions()
    args = {
        "y": np.zeros(N, np.float32),
        "n": np.array(N, np.int32),
        "s": np.array(0, np.int32),
    }
    names = [
        arg.name_hint
        for arg in interp.get_function(kernel).regions[0].block.args
    ]
    with pytest.raises(LoopStepError):
        interp.call(kernel, *[args[name] for name in names])
    assert observed == []
    assert not args["y"].any()

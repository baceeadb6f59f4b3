"""Whole-space loops over strided views, and the cases that must not take
one.

The vectorizer passes each nest level's induction variable as a lazy
range, so an in-bounds affine subscript reads and writes a strided view
of the buffer instead of a gathered copy.  Each small kernel here runs
on the four engine tiers and must agree bit for bit in outputs and
steps, or raise the same error; its vectorizer modes are pinned, so a
kernel cannot pass by falling off the whole-space tier.  Out-of-range
and negative subscripts must take the index-array path (a slice would
clip or empty where the scalar walk raises or wraps), and a view must
never see a write the scalar walk would not show it.
"""

import numpy as np
import pytest

from repro.dialects import arith, builtin, func, memref, scf
from repro.ir import Builder, Interpreter
from repro.ir.types import FunctionType, MemRefType, f32
from repro.ir.vectorize import loop_vector_mode
from repro.pipeline import compile_fortran
from repro.reliability import DivisionByZeroError, ReproError, SubscriptError

#: (compiled, vectorize) — scalar ground truth first
TIERS = ((False, False), (False, True), (True, False), (True, True))

_HEAD = """
subroutine {name}({args})
  implicit none
  integer, intent(in) :: n
{decls}
  integer :: i, j
!$omp target parallel do{clause}
  do i = 1, n
{body}
  end do
!$omp end target parallel do
end subroutine {name}
"""


def _source(name, args, decls, body, clause=""):
    return _HEAD.format(
        name=name, args=args, decls=decls, body=body, clause=clause
    )


_REAL_IO = "  real, intent(inout) :: x(n)\n  real, intent(inout) :: y(n)"

#: name -> (source, the vectorizer modes of its loops, which are the
#: modes they had with gathered index vectors: views must not move them)
KERNELS = {
    # the scalar t lives in memory: a rank-0 store keeps the loop scalar
    "copy_then_clear": (
        _source(
            "clear", "x, y, n",
            _REAL_IO + "\n  real :: t",
            "    t = x(i)\n    x(i) = 0.0\n    y(i) = t",
        ),
        [None],
    ),
    "transpose": (
        _source(
            "transpose", "x, y, n",
            "  real, intent(in) :: x(n, n)\n  real, intent(inout) :: y(n, n)",
            "    do j = 1, n\n      y(j, i) = x(i, j)\n    end do",
            clause=" collapse(2)",
        ),
        ["nest_elementwise", "nest_segmented"],
    ),
    "reverse": (
        _source("reverse", "x, y, n", _REAL_IO, "    y(i) = x(n + 1 - i)"),
        ["nest_segmented"],
    ),
    # a negative subscript wraps onto the end of x on every tier
    "before_start": (
        _source("shift", "x, y, n", _REAL_IO, "    y(i) = x(i - 5)"),
        ["nest_segmented"],
    ),
    # x(n + 1) is out of range: every tier raises
    "past_end": (
        _source("shift", "x, y, n", _REAL_IO, "    y(i) = x(i + 1)"),
        ["nest_segmented"],
    ),
}

_PROGRAMS: dict[str, object] = {}


def _program(source: str):
    if source not in _PROGRAMS:
        _PROGRAMS[source] = compile_fortran(source)
    return _PROGRAMS[source]


def _entry(source: str) -> str:
    return source.split("subroutine ", 1)[1].split("(", 1)[0]


def _args(name: str, n: int):
    rng = np.random.default_rng(5)
    shape = (n, n) if name == "transpose" else (n,)
    x = rng.standard_normal(shape).astype(np.float32)
    y = rng.standard_normal(shape).astype(np.float32)
    return [x, y, np.array(n, dtype=np.int32)]


def _outcome(program, entry: str, args, tier):
    """``(outputs, steps, cycles)`` of one run, or ``(error type,
    message)`` for an out-of-range subscript."""
    compiled, vectorize = tier
    try:
        result = program.executor(compiled=compiled, vectorize=vectorize).run(
            entry, *args
        )
    except IndexError as error:
        return type(error), str(error)
    outputs = [np.asarray(a).tobytes() for a in args[:-1]]
    return outputs, result.interpreter_steps, result.kernel_cycles


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_kernel_agrees_on_every_tier(name):
    source, modes = KERNELS[name]
    program = _program(source)
    assert [
        loop_vector_mode(op)[0]
        for op in program.device_module.walk()
        if op.name == "scf.for"
    ] == modes
    n = 24 if name == "transpose" else 100
    outcomes = [
        _outcome(program, _entry(source), _args(name, n), tier)
        for tier in TIERS
    ]
    assert all(o == outcomes[0] for o in outcomes[1:]), name
    if name == "past_end":
        assert outcomes[0][0] is SubscriptError
    else:
        assert isinstance(outcomes[0][0], list)


def test_transpose_and_reverse_values():
    """The views land where the scalar walk puts the values."""
    for name, want in (
        ("transpose", lambda x: x.T), ("reverse", lambda x: x[::-1]),
        ("before_start", lambda x: np.roll(x, 5)),
    ):
        source, _ = KERNELS[name]
        args = _args(name, 24)
        x = args[0].copy()
        _program(source).executor().run(_entry(source), *args)
        assert args[1].tobytes() == want(x).tobytes(), name


def _copy_rule_module(n: int):
    """``t = a[i]; a[i] = 0; b[i] = t``: the load's view of ``a`` is
    still read after the store that zeroes its cells."""
    module = builtin.ModuleOp()
    vec = MemRefType(f32, [n])
    fn = func.FuncOp("f", FunctionType([vec, vec], []))
    module.body.add_op(fn)
    b = Builder.at_end(fn.body)
    lb, ub, step = (
        b.insert(arith.Constant.index(v)).results[0] for v in (0, n, 1)
    )
    loop = b.insert(scf.For(lb, ub, step))
    body = Builder.at_end(loop.body)
    a_arg, b_arg = fn.body.args
    i = loop.induction_var
    t = body.insert(memref.Load(a_arg, [i])).results[0]
    zero = body.insert(arith.Constant.float(0.0, 32)).results[0]
    body.insert(memref.Store(zero, a_arg, [i]))
    body.insert(memref.Store(t, b_arg, [i]))
    body.insert(scf.Yield())
    b.insert(func.ReturnOp())
    return module, loop


def test_view_read_after_a_store_is_copied():
    n = 128
    a = np.arange(1, n + 1, dtype=np.float32)
    observed = []
    for compiled, vectorize in TIERS:
        module, loop = _copy_rule_module(n)
        assert loop_vector_mode(loop)[0] == "elementwise"
        x, y = a.copy(), np.zeros(n, np.float32)
        interp = Interpreter(module, compiled=compiled, vectorize=vectorize)
        interp.call("f", x, y)
        observed.append((x.tobytes(), y.tobytes(), interp.steps))
    assert all(o == observed[0] for o in observed[1:])
    assert observed[0][1] == a.tobytes()  # b keeps a's old values


# -- integer division by zero ---------------------------------------------------

_INT_IO = (
    "  integer, intent(in) :: k\n"
    "  integer, intent(in) :: x(n)\n"
    "  integer, intent(inout) :: y(n)"
)

DIVISIONS = {
    "quotient": "    y(i) = x(i) / k",
    "shifted_quotient": "    y(i) = (x(i) + 1) / k",
    "remainder": "    y(i) = mod(x(i) + 1, k)",
}


@pytest.mark.parametrize("name", sorted(DIVISIONS))
@pytest.mark.parametrize("k", [0, -3])
def test_integer_division_on_every_tier(name, k):
    """A zero divisor raises one typed error on every tier (before, the
    scalar and block-JIT tiers raised a bare ``ValueError`` or
    ``OverflowError`` and the vectorized tiers stored 0); a non-zero one
    truncates identically."""
    source = _source("idiv", "x, y, k, n", _INT_IO, DIVISIONS[name])
    program = _program(source)
    assert [
        loop_vector_mode(op)[0]
        for op in program.device_module.walk()
        if op.name == "scf.for"
    ] == ["nest_segmented"]
    n = 100
    x = np.arange(-n // 2, n // 2, dtype=np.int32)
    outcomes = []
    for tier in TIERS:
        args = [x.copy(), np.zeros(n, np.int32), np.array(k, np.int32),
                np.array(n, np.int32)]
        compiled, vectorize = tier
        executor = program.executor(compiled=compiled, vectorize=vectorize)
        if k == 0:
            with pytest.raises(DivisionByZeroError) as info:
                executor.run("idiv", *args)
            assert isinstance(info.value, (ReproError, ZeroDivisionError))
            outcomes.append(str(info.value))
        else:
            result = executor.run("idiv", *args)
            outcomes.append((args[1].tobytes(), result.interpreter_steps))
    assert all(o == outcomes[0] for o in outcomes[1:])

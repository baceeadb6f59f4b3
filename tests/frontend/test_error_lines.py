"""Every frontend rejection carries the offending source line.

``FortranSyntaxError``/``SemanticError`` expose ``.line`` (1-based, -1
when genuinely unknown) and prefix their message with ``line N:``; the
reliability wrapper propagates the line onto the wrapped
``FrontendError`` so tooling (the lint CLI, the service) never has to
re-parse messages.
"""

import pytest

from repro.frontend.lexer import FortranSyntaxError
from repro.frontend.parser import parse_source
from repro.frontend.sema import SemanticError, analyze


def parse_error(source: str) -> FortranSyntaxError:
    with pytest.raises(FortranSyntaxError) as excinfo:
        parse_source(source)
    return excinfo.value


def sema_error(source: str) -> SemanticError:
    with pytest.raises(SemanticError) as excinfo:
        analyze(parse_source(source))
    return excinfo.value


class TestParserLines:
    def test_empty_source(self):
        err = parse_error("")
        assert err.line == 1
        assert "line 1" in str(err)

    def test_bad_intent_points_at_declaration_line(self):
        err = parse_error(
            "subroutine s(x)\n"
            "  real, intent(foo) :: x\n"
            "end subroutine\n"
        )
        assert err.line == 2
        assert "foo" in str(err)

    def test_missing_do_keyword(self):
        err = parse_error(
            "program t\n"
            "  integer :: i\n"
            "  do i = 1, 10\n"
            "  end if\n"
            "end program t\n"
        )
        assert err.line > 0
        assert f"line {err.line}:" in str(err)


class TestSemaLines:
    def test_no_program_unit(self):
        # A subroutine-only module analyzes, but has no main program.
        info = analyze(
            parse_source("subroutine s(x)\n  real :: x\nend subroutine\n")
        )
        with pytest.raises(SemanticError) as excinfo:
            info.main()
        assert excinfo.value.line == 1

    def test_undeclared_name_carries_line(self):
        err = sema_error(
            "program t\n"
            "  integer :: i\n"
            "  i = j + 1\n"
            "end program t\n"
        )
        assert err.line == 3
        assert "line 3" in str(err)


_STEPPED = (
    "subroutine s(y, z, n)\n"  # line 1
    "  integer, intent(in) :: n\n"
    "  integer, parameter :: back = -2\n"
    "  real, intent(inout) :: y(n)\n"
    "  real, intent(inout) :: z(n, n)\n"  # line 5
    "  integer :: i, j\n"
    "{body}"  # the loop opens on line 7
    "end subroutine s\n"
)

#: a loop whose constant step is zero or negative, opening on ``line``
NON_POSITIVE_STEPS = {
    "host-minus-one": (7, "  do i = n, 1, -1\n    y(i) = 0.0\n  end do\n"),
    "host-zero": (7, "  do i = 1, n, 0\n    y(i) = 0.0\n  end do\n"),
    "host-parameter": (7, "  do i = n, 1, back\n    y(i) = 0.0\n  end do\n"),
    "host-expression": (
        7, "  do i = 1, n, 1 - 2\n    y(i) = 0.0\n  end do\n"
    ),
    "target-parallel-do": (
        8,
        "!$omp target parallel do\n"
        "  do i = n, 1, -1\n    y(i) = 0.0\n  end do\n"
        "!$omp end target parallel do\n",
    ),
    "collapse-inner": (
        9,
        "!$omp target parallel do collapse(2)\n"
        "  do i = 1, n\n    do j = n, 1, -1\n"
        "      z(j, i) = 0.0\n    end do\n  end do\n"
        "!$omp end target parallel do\n",
    ),
}


class TestNonPositiveStep:
    """A constant DO step that is zero or negative is rejected at the DO
    statement's line: loops lower to ``scf.for``, which counts up only,
    and such a loop used to compile and run zero trips or spin."""

    @pytest.mark.parametrize("case", sorted(NON_POSITIVE_STEPS))
    def test_sema_rejects_at_the_do_line(self, case):
        line, body = NON_POSITIVE_STEPS[case]
        err = sema_error(_STEPPED.format(body=body))
        assert err.line == line
        assert "do loop step must be positive" in str(err)

    def test_session_raises_a_frontend_error(self):
        from repro.reliability.errors import FrontendError
        from repro.session import Session

        line, body = NON_POSITIVE_STEPS["target-parallel-do"]
        with pytest.raises(FrontendError) as excinfo:
            Session(_STEPPED.format(body=body)).frontend()
        assert excinfo.value.line == line

    # 1/0 folds to no value: it raises DivisionByZeroError where it runs
    @pytest.mark.parametrize("step", ["2", "n", "back + 3", "1/0"])
    def test_positive_or_runtime_step_compiles(self, step):
        body = f"  do i = 1, n, {step}\n    y(i) = 0.0\n  end do\n"
        analyze(parse_source(_STEPPED.format(body=body)))


#: a constant division by zero in a declaration, on ``line``
ZERO_DIVISORS = {
    "extent": (2, "subroutine s(y)\n  real, intent(inout) :: y(4/0)\n"),
    "parameter": (
        2,
        "subroutine s(y)\n  integer, parameter :: m = 3/(2 - 2)\n"
        "  real, intent(inout) :: y(4)\n",
    ),
    "extent-from-parameter": (
        3,
        "subroutine s(y)\n  integer, parameter :: z = 0\n"
        "  real, intent(inout) :: y(8/z)\n",
    ),
}


class TestConstantDivision:
    """Sema folds integer ``/`` by truncating toward zero, as
    ``arith.divsi`` does at run time, and a constant zero divisor in a
    declaration is a typed error at its line."""

    @pytest.mark.parametrize("case", sorted(ZERO_DIVISORS))
    def test_zero_divisor_rejected_at_the_declaration(self, case):
        line, head = ZERO_DIVISORS[case]
        err = sema_error(head + "  y(1) = 0.0\nend subroutine s\n")
        assert err.line == line
        assert "division by zero" in str(err)

    def test_session_raises_a_frontend_error_with_the_line(self):
        from repro.reliability.errors import FrontendError
        from repro.session import Session

        line, head = ZERO_DIVISORS["extent"]
        with pytest.raises(FrontendError) as excinfo:
            Session(head + "  y(1) = 0.0\nend subroutine s\n").frontend()
        assert excinfo.value.line == line

    def test_negative_division_extent_truncates(self):
        """``(-7)/2`` is -3 in Fortran, at compile time as at run time,
        so ``tmp`` has 7 cells and ``tmp(7)`` is in bounds."""
        import numpy as np

        from repro.session import Session

        source = (
            "subroutine s(y, m)\n"
            "  integer, intent(in) :: m\n"
            "  real, intent(inout) :: y(2)\n"
            "  real :: tmp((-7)/2 + 10)\n"
            "  tmp(7) = 5.0\n"
            "  y(1) = tmp(7)\n"
            "  y(2) = (-7)/m\n"
            "end subroutine s\n"
        )
        program = Session(source).program()
        for compiled in (False, True):
            y = np.zeros(2, np.float32)
            program.executor(compiled=compiled).run(
                "s", y, np.array(2, np.int32)
            )
            assert y.tolist() == [5.0, -3.0]


#: a loop with a real DO bound, opening on ``line``
REAL_BOUNDS = {
    "host-start": (7, "  do i = 1.0, n\n    y(i) = 0.0\n  end do\n"),
    "host-stop": (7, "  do i = 1, n * 0.5\n    y(i) = 0.0\n  end do\n"),
    "host-step": (7, "  do i = 1, n, 2.0\n    y(i) = 0.0\n  end do\n"),
    "target-parallel-do": (
        8,
        "!$omp target parallel do\n"
        "  do i = 1.0, n\n    y(i) = 0.0\n  end do\n"
        "!$omp end target parallel do\n",
    ),
    "collapse-inner": (
        9,
        "!$omp target parallel do collapse(2)\n"
        "  do i = 1, n\n    do j = 1, real(n)\n"
        "      z(j, i) = 0.0\n    end do\n  end do\n"
        "!$omp end target parallel do\n",
    ),
}


class TestRealDoBound:
    """A DO start, stop or step that is not an integer is rejected at
    the DO line; it used to fail later, in fir-to-core, with no line."""

    @pytest.mark.parametrize("case", sorted(REAL_BOUNDS))
    def test_sema_rejects_at_the_do_line(self, case):
        line, body = REAL_BOUNDS[case]
        err = sema_error(_STEPPED.format(body=body))
        assert err.line == line
        assert "must be an integer expression" in str(err)

    def test_session_raises_a_frontend_error(self):
        from repro.reliability.errors import FrontendError
        from repro.session import Session

        line, body = REAL_BOUNDS["host-start"]
        with pytest.raises(FrontendError) as excinfo:
            Session(_STEPPED.format(body=body)).frontend()
        assert excinfo.value.line == line


class TestWrappedErrors:
    def test_frontend_error_inherits_line(self):
        from repro.reliability.errors import FrontendError
        from repro.session import Session

        bad = (
            "subroutine s(x)\n"
            "  complex :: x\n"
            "end subroutine\n"
        )
        with pytest.raises(FrontendError) as excinfo:
            Session(bad).frontend()
        err = excinfo.value
        assert err.line == 2
        assert "line=2" in str(err)

    def test_unknown_line_stays_sentinel(self):
        from repro.reliability.errors import ReproError

        err = ReproError("boom")
        assert err.line == -1
        assert "line=" not in str(err)

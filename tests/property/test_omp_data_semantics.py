"""Property: the device-dialect data lowering implements OpenMP 5 mapping
semantics under randomized data-region nesting.

For a random nesting depth of ``target data`` regions around two offloaded
loops, the final array contents must always equal the sequential result,
and transfer counts must shrink monotonically as regions cover more of
the offloads (residency!).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pipeline import compile_fortran


def _source(with_region: bool, update: bool) -> str:
    open_region = "!$omp target data map(tofrom: a)\n" if with_region else ""
    close_region = "!$omp end target data\n" if with_region else ""
    update_stmt = "!$omp target update from(a)\n" if (with_region and update) else ""
    return f"""
subroutine work(a, n)
  integer, intent(in) :: n
  real, intent(inout) :: a(n)
  integer :: i
{open_region}!$omp target parallel do
  do i = 1, n
    a(i) = a(i) + 1.0
  end do
!$omp end target parallel do
{update_stmt}!$omp target parallel do
  do i = 1, n
    a(i) = a(i) * 3.0
  end do
!$omp end target parallel do
{close_region}end subroutine work
"""


@given(
    with_region=st.booleans(),
    update=st.booleans(),
    n=st.integers(min_value=1, max_value=400),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=24, deadline=None)
def test_any_nesting_preserves_semantics(with_region, update, n, seed):
    program = compile_fortran(_source(with_region, update))
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(n).astype(np.float32)
    expected = ((a + np.float32(1.0)) * np.float32(3.0)).astype(np.float32)
    program.executor().run("work", a, np.array(n, np.int32))
    assert a.tobytes() == expected.tobytes()


def test_region_reduces_traffic_update_refreshes_host():
    n = 500
    rng = np.random.default_rng(3)
    base = rng.standard_normal(n).astype(np.float32)

    def run(with_region, update):
        program = compile_fortran(_source(with_region, update))
        a = base.copy()
        result = program.executor().run("work", a, np.array(n, np.int32))
        return a, result

    _, bare = run(False, False)
    _, scoped = run(True, False)
    _, scoped_update = run(True, True)
    # residency saves round trips
    assert scoped.bytes_h2d < bare.bytes_h2d
    assert scoped.bytes_d2h < bare.bytes_d2h
    # a target update adds exactly one array-sized D2H transfer
    assert scoped_update.bytes_d2h == scoped.bytes_d2h + n * 4


def test_enter_exit_data_pair():
    """Unstructured regions behave like the structured one."""
    source = """
subroutine work(a, n)
  integer, intent(in) :: n
  real, intent(inout) :: a(n)
  integer :: i
!$omp target enter data map(to: a)
!$omp target parallel do
  do i = 1, n
    a(i) = a(i) + 1.0
  end do
!$omp end target parallel do
!$omp target exit data map(from: a)
end subroutine work
"""
    program = compile_fortran(source)
    n = 300
    a = np.zeros(n, dtype=np.float32)
    result = program.executor().run("work", a, np.array(n, np.int32))
    assert np.all(a == 1.0)
    # enter data: one H2D of a; offload: no re-transfer of a;
    # exit data: one D2H of a
    assert result.bytes_h2d == n * 4 + 4  # + the implicit scalar n
    assert result.bytes_d2h == n * 4


def _update_source(direction: str | None, before: bool) -> str:
    update = f"!$omp target update {direction}(a)\n" if direction else ""
    return f"""
subroutine work(a, n)
  integer, intent(in) :: n
  real, intent(inout) :: a(n)
  integer :: i
{update if before else ""}!$omp target parallel do
  do i = 1, n
    a(i) = a(i) + 1.0
  end do
!$omp end target parallel do
{"" if before else update}end subroutine work
"""


@pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
@pytest.mark.parametrize("direction", ["from", "to"])
def test_update_of_absent_item_assigns_nothing(direction, before):
    """OpenMP 5.x ``target update``: no assignment occurs for a list item
    that is not present — before its first map, or after its last
    release (its buffer is still allocated then).  The program runs as
    if the update were not there."""
    n = 300
    base = np.random.default_rng(5).standard_normal(n).astype(np.float32)

    def run(direction):
        program = compile_fortran(_update_source(direction, before))
        a = base.copy()
        result = program.executor().run("work", a, np.array(n, np.int32))
        return a, result

    a, result = run(direction)
    plain_a, plain = run(None)
    expected = (base + np.float32(1.0)).astype(np.float32)
    assert a.tobytes() == expected.tobytes() == plain_a.tobytes()
    assert result.transfers == plain.transfers
    assert result.bytes_h2d == plain.bytes_h2d
    assert result.bytes_d2h == plain.bytes_d2h

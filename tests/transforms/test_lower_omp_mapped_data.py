"""Tests for *lower omp mapped data*: device data ops + ref counting."""

import numpy as np
import pytest

from repro.frontend import compile_to_core
from repro.ir import PassManager, print_op
from repro.transforms import LowerOmpMappedDataPass, MemorySpacePolicy
from repro.workloads import get_workload


def lower(source: str, policy: str = "single"):
    module = compile_to_core(source).module
    pm = PassManager(verify_each=True)
    pm.add(LowerOmpMappedDataPass(policy))
    pm.run(module)
    return module


TARGET_DATA = """
subroutine s(a, n)
  integer, intent(in) :: n
  real, intent(inout) :: a(n)
  integer :: i
!$omp target data map(tofrom: a)
!$omp target parallel do
  do i = 1, n
    a(i) = a(i) + 1.0
  end do
!$omp end target parallel do
!$omp end target data
end subroutine s
"""


class TestStructure:
    def test_map_infos_consumed(self, saxpy_mini_source):
        module = lower(saxpy_mini_source)
        names = {op.name for op in module.walk()}
        assert "omp.map_info" not in names
        assert "omp.bounds" not in names

    def test_device_ops_emitted(self, saxpy_mini_source):
        module = lower(saxpy_mini_source)
        names = [op.name for op in module.walk()]
        for expected in (
            "device.alloc",
            "device.lookup",
            "device.data_check_exists",
            "device.data_acquire",
            "device.data_release",
        ):
            assert expected in names, expected

    def test_target_operands_are_device_memrefs(self, saxpy_mini_source):
        module = lower(saxpy_mini_source)
        target = next(op for op in module.walk() if op.name == "omp.target")
        for operand in target.operands:
            assert operand.op.name == "device.lookup"
            assert operand.type.memory_space == 1
        for arg in target.regions[0].block.args:
            assert arg.type.memory_space == 1

    def test_conditional_alloc_and_copy(self, saxpy_mini_source):
        """The paper's implicit-map handling: alloc and the H2D DMA sit
        inside conditionals guarded by device.data_check_exists."""
        module = lower(saxpy_mini_source)
        text = print_op(module)
        assert '"device.data_check_exists"' in text
        # alloc appears inside an scf.if region
        for op in module.walk():
            if op.name == "device.alloc":
                assert op.parent_op.name == "scf.if"
            if op.name == "memref.dma_start":
                assert op.parent_op.name == "scf.if"

    def test_release_after_target(self, saxpy_mini_source):
        module = lower(saxpy_mini_source)
        fn = next(op for op in module.walk() if op.name == "func.func")
        names = [op.name for op in fn.body.ops]
        target_at = names.index("omp.target")
        releases = [i for i, n in enumerate(names) if n == "device.data_release"]
        acquires = [i for i, n in enumerate(names) if n == "device.data_acquire"]
        assert all(i < target_at for i in acquires)
        assert all(i > target_at for i in releases)
        assert len(releases) == len(acquires)

    def test_target_data_region_inlined(self):
        module = lower(TARGET_DATA)
        names = {op.name for op in module.walk()}
        assert "omp.target_data" not in names
        assert "omp.target" in names  # inner offload survives this pass


class TestMemorySpacePolicy:
    def test_single_policy_uses_bank_one(self, saxpy_mini_source):
        module = lower(saxpy_mini_source, "single")
        spaces = {
            op.attributes["memory_space"].value
            for op in module.walk()
            if op.name == "device.alloc"
        }
        assert spaces == {1}

    def test_round_robin_spreads_banks(self, saxpy_mini_source):
        module = lower(saxpy_mini_source, "round_robin")
        spaces = {
            op.attributes["memory_space"].value
            for op in module.walk()
            if op.name == "device.alloc"
        }
        assert len(spaces) > 1

    def test_policy_stable_per_identifier(self):
        policy = MemorySpacePolicy("round_robin")
        first = policy.space_for("a")
        assert policy.space_for("a") == first
        assert policy.space_for("b") != first

    @pytest.mark.parametrize(
        "build",
        [
            lambda: MemorySpacePolicy("bogus"),
            lambda: LowerOmpMappedDataPass("bogus"),
            lambda: PassManager.parse("lower-omp-mapped-data{policy=bogus}"),
        ],
        ids=["policy", "pass", "pipeline-spec"],
    )
    def test_unknown_mode_is_rejected(self, build):
        """A misspelled mode used to build a round-robin layout, since
        every mode but "single" assigned banks round-robin."""
        with pytest.raises(ValueError, match="'single' and 'round_robin'"):
            build()

    @pytest.mark.parametrize(
        "policy", [MemorySpacePolicy("round_robin"), None, 1],
        ids=["policy-object", "none", "int"],
    )
    def test_pass_takes_a_mode_string_only(self, policy):
        with pytest.raises(TypeError, match="mode string"):
            LowerOmpMappedDataPass(policy)

    def test_reused_pipeline_restarts_bank_assignment(self):
        """A pass instance carries no bank state from one module into the
        next: a reused round-robin pipeline gives dot the IR a fresh one
        gives it (dot's banks used to continue from saxpy's)."""
        spec = "lower-omp-mapped-data{policy=round_robin}"

        def core(name):
            return compile_to_core(get_workload(name).source).module

        reused = PassManager.parse(spec)
        reused.run(core("saxpy"))
        dot = core("dot")
        reused.run(dot)
        fresh = core("dot")
        PassManager.parse(spec).run(fresh)
        assert print_op(dot) == print_op(fresh)


class TestCounterSemanticsEndToEnd:
    """Nested data regions transfer once (paper Listing 1 behaviour)."""

    def test_nested_region_transfers_once(self):
        from repro.pipeline import compile_fortran

        nested = """
subroutine s(a, n)
  integer, intent(in) :: n
  real, intent(inout) :: a(n)
  integer :: i
!$omp target data map(tofrom: a)
!$omp target parallel do
  do i = 1, n
    a(i) = a(i) + 1.0
  end do
!$omp end target parallel do
!$omp target parallel do
  do i = 1, n
    a(i) = a(i) * 2.0
  end do
!$omp end target parallel do
!$omp end target data
end subroutine s
"""
        bare = nested.replace(
            "!$omp target data map(tofrom: a)\n", ""
        ).replace("!$omp end target data\n", "")
        n = 1000
        a0 = np.arange(n, dtype=np.float32)

        scoped_prog = compile_fortran(nested)
        a_scoped = a0.copy()
        scoped = scoped_prog.executor().run(
            "s", a_scoped, np.array(n, np.int32)
        )
        bare_prog = compile_fortran(bare)
        a_bare = a0.copy()
        unscoped = bare_prog.executor().run(
            "s", a_bare, np.array(n, np.int32)
        )
        expected = (a0 + 1.0) * 2.0
        assert np.allclose(a_scoped, expected)
        assert np.allclose(a_bare, expected)
        # the data region saves the second round trip of `a`
        assert scoped.bytes_h2d < unscoped.bytes_h2d
        assert scoped.bytes_d2h < unscoped.bytes_d2h

"""Staged-session API: stage caching, artifact reuse, frozen config
keys, and the one-shot :func:`compile_fortran`."""

import warnings

import pytest

from repro.ir import print_op
from repro.ir.pass_manager import Instrumentation, PassManager
from repro.pipeline import compile_fortran
from repro.session import (
    KernelOverrides,
    Session,
    TargetConfig,
    host_device_pipeline,
)
from repro.transforms import MemorySpacePolicy
from repro.workloads import SAXPY_SOURCE, get_workload
from tests.conftest import SAXPY_MINI


class TestStageCaching:
    def test_frontend_computed_once(self):
        session = Session(SAXPY_MINI)
        assert session.frontend() is session.frontend()
        assert session.counters["frontend_compiles"] == 1

    def test_host_device_computed_once(self):
        session = Session(SAXPY_MINI)
        assert session.host_device() is session.host_device()
        session.program(KernelOverrides(simdlen=2))
        assert session.counters["host_device_builds"] == 1

    def test_device_build_cached_per_overrides(self):
        session = Session(SAXPY_MINI)
        base = session.device_build()
        assert session.device_build(KernelOverrides()) is base
        wide = session.device_build(KernelOverrides(simdlen=4))
        assert wide is not base
        assert session.counters["frontend_compiles"] == 1
        assert session.counters["device_builds"] == 2

    def test_program_is_the_cached_device_build(self):
        session = Session(SAXPY_MINI)
        overrides = KernelOverrides(simdlen=2)
        program = session.program(overrides)
        assert session.device_build(overrides) is program
        assert session.program(KernelOverrides(simdlen=2)) is program
        assert session.release_build(overrides)
        assert session.program(overrides) is not program
        assert session.counters["device_builds"] == 2

    def test_programs_share_host_artifacts(self):
        session = Session(SAXPY_MINI)
        a = session.program()
        b = session.program(KernelOverrides(simdlen=2))
        assert a.host_module is b.host_module
        assert a.host_cpp is b.host_cpp
        assert a.bitstream is not b.bitstream

    def test_frontend_module_stays_pristine(self):
        """Stages clone before mutating: the frontend module keeps its
        omp form, and the pre-HLS device module keeps omp loops."""
        session = Session(SAXPY_MINI)
        session.program()
        names = {op.name for op in session.frontend().module.walk()}
        assert "omp.target" in names
        device_names = {
            op.name for op in session.host_device().device_module.walk()
        }
        assert "omp.parallel" in device_names  # not yet HLS-lowered
        assert "hls.pipeline" not in device_names

    def test_rebuild_after_pristine_reuse_is_deterministic(self):
        """Two sessions over the same source produce identical builds
        even after the first session ran multiple device builds."""
        first = Session(SAXPY_MINI)
        first.program(KernelOverrides(simdlen=2))
        first_base = first.program()
        second_base = Session(SAXPY_MINI).program()
        assert print_op(first_base.device_module) == print_op(
            second_base.device_module
        )


class TestStageFailureEviction:
    """A raise mid-stage must leave the session reusable: the failed
    stage's cache key is evicted (never a partial artifact), earlier
    stages stay cached, and an immediate retry succeeds."""

    def test_failed_device_build_evicts_key_and_retry_succeeds(
        self, monkeypatch
    ):
        from repro.backend.vitis import VitisCompiler
        from repro.reliability import DeviceBuildError

        session = Session(SAXPY_MINI)
        session.host_device()  # warm the earlier stages
        counters_before = dict(session.counters)

        real_compile = VitisCompiler.compile
        calls = {"n": 0}

        def flaky_compile(self, module, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("synthesis backend crashed")
            return real_compile(self, module, **kwargs)

        monkeypatch.setattr(VitisCompiler, "compile", flaky_compile)
        with pytest.raises(DeviceBuildError) as excinfo:
            session.device_build()
        assert excinfo.value.__cause__ is not None
        assert not session._builds  # the poisoned key was evicted

        # earlier stage caches survived — nothing recompiled
        assert session.counters["frontend_compiles"] == \
            counters_before["frontend_compiles"]
        assert session.counters["host_device_builds"] == \
            counters_before["host_device_builds"]

        # the retry re-runs only the failed stage, bit-identically to a
        # fresh session over the same source
        retried = session.program()
        assert calls["n"] == 2  # one failed attempt + one retry
        pristine = Session(SAXPY_MINI).program()
        assert print_op(retried.device_module) == print_op(
            pristine.device_module
        )

    def test_keyboard_interrupt_evicts_and_reraises_unwrapped(
        self, monkeypatch
    ):
        """Ctrl-C mid-build is a BaseException, not an Exception: it must
        still evict the stage key (session stays reusable) and must
        propagate as KeyboardInterrupt, never wrapped into a ReproError."""
        from repro.backend.vitis import VitisCompiler

        session = Session(SAXPY_MINI)
        session.host_device()
        real_compile = VitisCompiler.compile
        calls = {"n": 0}

        def interrupted_compile(self, module, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise KeyboardInterrupt
            return real_compile(self, module, **kwargs)

        monkeypatch.setattr(VitisCompiler, "compile", interrupted_compile)
        with pytest.raises(KeyboardInterrupt):
            session.device_build()
        assert not session._builds

        retried = session.program()
        assert calls["n"] == 2
        pristine = Session(SAXPY_MINI).program()
        assert print_op(retried.device_module) == print_op(
            pristine.device_module
        )

    def test_keyboard_interrupt_in_frontend_leaves_session_reusable(
        self, monkeypatch
    ):
        import repro.session as session_mod

        session = Session(SAXPY_MINI)

        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(session_mod, "compile_to_core", interrupt)
        with pytest.raises(KeyboardInterrupt):
            session.frontend()
        monkeypatch.undo()

        assert session._frontend is None
        assert session.frontend() is session.frontend()
        assert session.counters["frontend_compiles"] == 1

    def test_failed_frontend_caches_nothing(self, monkeypatch):
        import repro.session as session_mod
        from repro.reliability import FrontendError

        session = Session(SAXPY_MINI)

        def crash(*args, **kwargs):
            raise RuntimeError("instrumentation hook crashed")

        monkeypatch.setattr(session_mod, "compile_to_core", crash)
        with pytest.raises(FrontendError):
            session.frontend()
        monkeypatch.undo()

        assert session.frontend() is session.frontend()  # retried fine
        assert session.counters["frontend_compiles"] == 1

    def test_executor_forwards_reliability_kwargs(self):
        from repro.reliability import DmaError, FaultPlan, FaultSpec

        program = Session(SAXPY_MINI).program()
        plan = FaultPlan([FaultSpec(site="dma_start", transient=False)])
        executor = program.executor(fault_plan=plan, watchdog_steps=10_000)
        workload = get_workload("saxpy")
        instance = workload.instance(64)
        with pytest.raises(DmaError):
            executor.run(workload.entry, *instance.args)


class TestInstrumentedSession:
    def test_stage_snapshots(self):
        session = Session(
            SAXPY_MINI, instrumentation=Instrumentation(capture_ir=True)
        )
        program = session.program()
        assert program.stage_names == [
            "fir+omp", "core+omp", "device-dialect", "device-hls",
            "llvm-ir", "amd-hls-llvm7",
        ]
        assert "hls.pipeline" in session.instrumentation.stage("device-hls")

    def test_pass_timings_recorded(self):
        session = Session(SAXPY_MINI)
        session.program()
        names = [t.pass_name for t in session.instrumentation.pass_traces]
        assert "fir-to-core" in names
        assert "lower-omp-to-hls" in names
        assert all(t.duration_s >= 0 for t in session.instrumentation.pass_traces)

    def test_no_snapshots_without_capture(self):
        session = Session(SAXPY_MINI)
        assert session.program().stages == []


class TestBackCompatShim:
    """compile_fortran(source, board=None) is a fresh Session's
    program()."""

    def test_plain_compile_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            compile_fortran(SAXPY_MINI)

    def test_modelled_values_identical(self):
        """Same simulated run numbers (device time, steps, outputs)
        through the shim and the staged API."""
        workload = get_workload("saxpy")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            old = compile_fortran(workload.source)
        new = Session(workload.source).program()
        results = []
        for program in (old, new):
            instance = workload.instance(2000)
            run = program.executor().run(workload.entry, *instance.args)
            workload.check(instance)
            results.append(
                (run.device_time_s, run.interpreter_steps, run.kernel_cycles)
            )
        assert results[0] == results[1]

    def test_compile_workload_shim(self):
        from repro.pipeline import compile_workload

        program = compile_workload("saxpy")
        assert any("saxpy" in name for name in program.bitstream.kernels)


class TestFrozenConfig:
    """TargetConfig and KernelOverrides are cache and digest keys:
    assignment raises instead of aliasing a cached stage."""

    def test_mutating_overrides_after_a_build_raises(self):
        import dataclasses

        session = Session(SAXPY_MINI)
        overrides = KernelOverrides(simdlen=2)
        program = session.program(overrides)
        digest = overrides.digest()
        with pytest.raises(dataclasses.FrozenInstanceError):
            overrides.simdlen = 4
        with pytest.raises(dataclasses.FrozenInstanceError):
            del overrides.compute_units
        assert overrides.digest() == digest
        # the cached build is still found under the same digest
        assert session.program(overrides).bitstream is program.bitstream
        assert session.counters["device_builds"] == 1

    def test_mutating_target_raises(self):
        import dataclasses

        target = TargetConfig(memory_space_policy="round_robin")
        with pytest.raises(dataclasses.FrozenInstanceError):
            target.memory_space_policy = "single"
        assert target.memory_space_policy == "round_robin"


class TestTargetConfig:
    def test_policy_applies_to_memory_spaces(self):
        session = Session(
            SAXPY_SOURCE,
            target=TargetConfig(memory_space_policy="round_robin"),
        )
        program = session.program()
        kernel = next(iter(program.bitstream.kernels.values()))
        spaces = {
            arg.type.memory_space for arg in kernel.func_op.body.args
        }
        assert len(spaces) > 1  # spread across HBM banks

    def test_policy_object_rejected(self):
        """The policy is a mode string; the bank count is the
        ``lower-omp-mapped-data{num_banks=...}`` pass option."""
        policy = MemorySpacePolicy(mode="round_robin", num_banks=4)
        with pytest.raises(TypeError, match="mode string"):
            TargetConfig(memory_space_policy=policy)
        with pytest.raises(TypeError, match="mode string"):
            host_device_pipeline(policy)
        pm = PassManager.parse(
            "lower-omp-mapped-data{policy=round_robin,num_banks=4}"
        )
        assert (pm.passes[0].policy, pm.passes[0].num_banks) == (
            "round_robin", 4,
        )

    def test_unknown_policy_rejected(self):
        """A misspelled mode used to build a round-robin bank layout."""
        with pytest.raises(ValueError, match="'single' and 'round_robin'"):
            TargetConfig(memory_space_policy="bogus")
        with pytest.raises(ValueError, match="'single' and 'round_robin'"):
            host_device_pipeline("bogus")

    def test_default_policy_is_single(self):
        """The default target and an explicit "single" one build the same
        artifact, so they share one digest (they used to differ)."""
        assert TargetConfig().memory_space_policy == "single"
        assert (
            TargetConfig().digest()
            == TargetConfig(memory_space_policy="single").digest()
        )
        assert (
            TargetConfig().digest()
            != TargetConfig(memory_space_policy="round_robin").digest()
        )

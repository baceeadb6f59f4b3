"""Executor tests: timing accounting + functional behaviour."""

import numpy as np
import pytest

from repro.pipeline import compile_fortran
from repro.runtime.cpu import CpuExecutor
from repro.frontend import compile_to_core
from tests.conftest import SAXPY_MINI, run_offload_saxpy


@pytest.fixture(scope="module")
def saxpy_program():
    return compile_fortran(SAXPY_MINI)


class TestFunctional:
    def test_offload_correct(self, saxpy_program):
        y, expected, result = run_offload_saxpy(saxpy_program, n=128)
        assert np.allclose(y, expected, rtol=1e-6)

    def test_result_fields(self, saxpy_program):
        _, _, result = run_offload_saxpy(saxpy_program, n=128)
        assert result.launches == 1
        # a, n scalars in; x, y in; x, y out
        assert result.transfers == 6
        assert result.bytes_h2d == 4 + 4 + 128 * 4 * 2
        assert result.bytes_d2h == 128 * 4 * 2
        assert result.kernel_cycles > 0
        assert result.device_time_s == pytest.approx(
            result.device_time_ms / 1e3
        )

    def test_time_decomposition(self, saxpy_program):
        _, _, result = run_offload_saxpy(saxpy_program, n=4096)
        assert result.kernel_time_s > 0
        assert result.transfer_time_s > 0
        # jitter is sub-percent: components approximately add up
        assert result.device_time_s == pytest.approx(
            result.kernel_time_s
            + result.transfer_time_s
            + result.launches * saxpy_program.board.kernel_launch_overhead_s,
            rel=0.02,
        )

    def test_kernel_time_scales_linearly(self, saxpy_program):
        _, _, small = run_offload_saxpy(saxpy_program, n=1024)
        _, _, big = run_offload_saxpy(saxpy_program, n=4096)
        ratio = big.kernel_time_s / small.kernel_time_s
        assert 3.0 < ratio < 5.0

    def test_fresh_executor_per_run(self, saxpy_program):
        """Each executor has independent device state: same result twice."""
        _, _, first = run_offload_saxpy(saxpy_program, n=256)
        _, _, second = run_offload_saxpy(saxpy_program, n=256)
        assert first.device_time_s == second.device_time_s

    def test_jitter_deterministic_but_flow_dependent(self, saxpy_program):
        a = saxpy_program.executor("fortran-openmp")
        b = saxpy_program.executor("other-flow")
        rng = np.random.default_rng(0)
        x = rng.standard_normal(64).astype(np.float32)
        y0 = rng.standard_normal(64).astype(np.float32)
        ra = a.run("saxpy", np.array(1.0, np.float32), x, y0.copy(),
                   np.array(64, np.int32))
        rb = b.run("saxpy", np.array(1.0, np.float32), x, y0.copy(),
                   np.array(64, np.int32))
        assert ra.device_time_s != rb.device_time_s
        assert abs(ra.device_time_s / rb.device_time_s - 1) < 0.01


class TestErrors:
    def test_unextracted_kernel_rejected(self):
        from repro.frontend import compile_to_core
        from repro.ir import PassManager
        from repro.backend.vitis import VitisCompiler
        from repro.dialects import builtin
        from repro.ir.attributes import StringAttr
        from repro.runtime.executor import FpgaExecutor
        from repro.transforms import (
            LowerOmpMappedDataPass,
            LowerOmpTargetRegionPass,
        )

        module = compile_to_core(SAXPY_MINI).module
        pm = PassManager()
        pm.add(LowerOmpMappedDataPass(), LowerOmpTargetRegionPass())
        pm.run(module)
        empty_device = builtin.ModuleOp(
            attributes={"target": StringAttr("fpga")}
        )
        bitstream = VitisCompiler().compile(empty_device)
        executor = FpgaExecutor(module, bitstream)
        from repro.ir import IRError

        with pytest.raises(IRError, match="extract-device-module"):
            executor.run(
                "saxpy",
                np.array(1.0, np.float32),
                np.zeros(8, np.float32),
                np.zeros(8, np.float32),
                np.array(8, np.int32),
            )


class TestHostRuntimeBinding:
    """The device ops have one global binding: their impls and compiled
    forms reach the executor through ``interp.host_executor``."""

    @pytest.mark.parametrize("compiled", [True, False])
    def test_device_op_without_executor_raises(self, compiled):
        from repro.dialects import builtin, device, func
        from repro.ir import Builder, Interpreter, InterpreterError
        from repro.ir.types import FunctionType, MemRefType, f32

        module = builtin.ModuleOp()
        fn = func.FuncOp("f", FunctionType([], []))
        module.body.add_op(fn)
        b = Builder.at_end(fn.body)
        b.insert(device.AllocOp(
            MemRefType(f32, [4], 1), identifier="x", memory_space=1
        ))
        b.insert(func.ReturnOp())
        interp = Interpreter(module, compiled=compiled)
        with pytest.raises(InterpreterError, match="device.alloc"):
            interp.call("f")

    def test_compiled_program_dies_with_its_modules(self):
        """Compiled functions live on their module's root op, like the
        vectorizer's plans: nothing module-global keeps a dropped
        program alive."""
        import gc
        import weakref

        import repro.ir.compile as jit
        from repro.session import Session
        from repro.workloads import get_workload

        workload = get_workload("saxpy")
        program = Session(workload.source).program()
        instance = workload.instance(workload.smoke_size)
        executor = program.executor()
        result = executor.run(workload.entry, *instance.args)
        workload.check(instance)
        host = weakref.ref(program.host_module)
        device = weakref.ref(program.device_module)
        del program, executor, result
        gc.collect()
        assert host() is None
        assert device() is None
        assert not hasattr(jit, "_MODULE_CACHE")


class TestCpuExecutor:
    def test_functional_and_modelled_time(self):
        module = compile_to_core(SAXPY_MINI).module
        executor = CpuExecutor(module)
        rng = np.random.default_rng(1)
        x = rng.standard_normal(500).astype(np.float32)
        y = rng.standard_normal(500).astype(np.float32)
        expected = (y + np.float32(2.0) * x).astype(np.float32)
        result = executor.run(
            "saxpy", np.array(2.0, np.float32), x, y, np.array(500, np.int32)
        )
        assert np.allclose(y, expected, rtol=1e-6)
        assert result.interpreter_steps > 500
        assert result.time_s == pytest.approx(
            result.interpreter_steps * CpuExecutor.seconds_per_step
        )
        assert 48 < result.power_w < 60

"""Host-program executor against the simulated FPGA.

Interprets the *host* module (post device-dialect lowering) with the
executor attached as the interpreter's ``host_executor``.  The ``device``
ops' global impls and compiled forms (registered below) and those of
``memref.dma_start``/``memref.wait`` (in :mod:`repro.dialects.memref`)
call its :meth:`~FpgaExecutor.alloc`, :meth:`~FpgaExecutor.dma_start`,
:meth:`~FpgaExecutor.dma_wait` and :meth:`~FpgaExecutor.launch` or its
buffer table, so every engine tier runs one simulated OpenCL runtime:

* functional semantics — buffers are NumPy arrays, kernels execute via
  the IR interpreter on the device module, so results are bit-for-bit
  checkable against NumPy/SciPy references;
* timing semantics — each run charges a fresh
  :class:`~repro.runtime.opencl.ClCommandQueue`: DMA ops advance its
  clock through the board's PCIe model and each kernel launch adds
  launch overhead plus the scheduled cycle count (pipeline fill + trips
  x achieved II); the queue also holds the multi-CU and streaming
  models and assembles the :class:`ExecutionResult`.

Kernel trip counts are observed during functional interpretation, so
dynamically-bounded loops (SGESL's ``j = k+1, n``) are timed exactly.
The buffer table (residency) persists across runs of one executor; the
clock and counters do not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NoReturn

import numpy as np

from repro.backend.vitis import Bitstream
from repro.dialects import builtin
from repro.dialects.memref import element_dtype
from repro.ir.attributes import IntegerAttr
from repro.ir.core import IRError, Operation
from repro.ir.interpreter import Interpreter, InterpreterError, impl
from repro.ir.types import DYNAMIC
from repro.reliability.errors import DataIntegrityError, WatchdogTimeout
from repro.reliability.faults import FaultPlan, FaultSpec
from repro.reliability.report import RunReport
from repro.reliability.retry import DEFAULT_RETRY_POLICY, RetryPolicy
from repro.runtime.device_runtime import DeviceDataTable
from repro.runtime.opencl import ClCommandQueue, ExecutionResult


@dataclass
class KernelInstance:
    """Runtime value of ``!device.kernelhandle``."""

    device_function: str
    args: list


class FpgaExecutor:
    """Executes a compiled host module against the simulated board."""

    def __init__(
        self,
        host_module: builtin.ModuleOp,
        bitstream: Bitstream,
        *,
        compiled: bool = True,
        vectorize: bool = True,
        fault_plan: FaultPlan | None = None,
        retry_policy: RetryPolicy | None = None,
        watchdog_steps: int | None = None,
    ):
        self.host_module = host_module
        self.bitstream = bitstream
        self.board = bitstream.board
        #: execution-tier selection, forwarded to both the host program
        #: interpreter and the device-kernel runner (the conformance suite
        #: sweeps these and asserts bit-identical results + accounting)
        self.compiled = compiled
        self.vectorize = vectorize
        #: reliability knobs — the Instrumentation-style hook: when no
        #: plan is armed ``self._faults`` stays None and every guarded
        #: site costs one attribute check and nothing else
        self.fault_plan = fault_plan
        self.retry_policy = retry_policy or DEFAULT_RETRY_POLICY
        self.watchdog_steps = watchdog_steps
        self._faults = None
        #: RunReport of the current/most recent run
        self.report: RunReport | None = None
        # only a tile is resident at a time in the streamed model, so
        # arrays may exceed a bank's capacity
        self.table = DeviceDataTable(
            self.board, oversubscribe=bitstream.stream_tile_bytes is not None
        )
        #: the clock of the current/most recent run (fresh per run)
        self.queue: ClCommandQueue | None = None
        from repro.runtime.kernel_runner import KernelRunner

        self._runner = KernelRunner(
            bitstream, compiled=compiled, vectorize=vectorize,
            watchdog_steps=watchdog_steps,
        )

    # -- public API --------------------------------------------------------------------

    def run(self, func_name: str, *args) -> ExecutionResult:
        report = RunReport(watchdog_budget=self.watchdog_steps)
        self.report = report
        self.queue = queue = ClCommandQueue(self.board, self.bitstream)
        self._faults = (
            self.fault_plan.controller(report, self.retry_policy)
            if self.fault_plan is not None
            else None
        )
        interp = Interpreter(
            self.host_module, compiled=self.compiled, vectorize=self.vectorize
        )
        # the device ops and DMAs of every tier do their work through
        # this executor's methods below
        interp.host_executor = self
        interp.reliability_report = report
        self._runner.attach_report(report)
        runner_steps_before = self._runner.interpreter_steps
        returned = interp.call(func_name, *args)
        report.completed = True
        kernel_steps = self._runner.interpreter_steps - runner_steps_before
        # the jitter key reads the clock once pending input tiles landed
        now_s = queue.finish()
        return queue.result(
            f"fortran-openmp:{func_name}:{now_s:.9f}",
            returned=returned,
            interpreter_steps=interp.steps + kernel_steps,
            report=report,
        )

    # -- fault-injection plumbing --------------------------------------------------------

    def _fault_gate(self, site: str) -> None:
        """Consume one occurrence of ``site`` against the armed plan.

        Fires *before* the op performs any work, so a transient fault
        that clears within the retry budget leaves accounting and state
        bit-identical to a fault-free run.  Only called when a plan is
        armed (callers check ``self._faults`` first).
        """
        spec = self._faults.poll(site)
        if spec is not None:
            self._faults.resolve(spec, site)

    def _launch_with_rollback(
        self, instance: "KernelInstance", spec: FaultSpec
    ):
        """Execute one kernel under an injected hang or bit-flip fault.

        The kernel's array arguments (plus the bit-flip target buffer)
        are checkpointed before each attempt; a faulted attempt restores
        them and rolls the device step counter back, so a recovered run
        is indistinguishable from a fault-free one outside the report.
        """
        runner = self._runner
        report, policy = self.report, self.retry_policy
        name = instance.device_function
        arrays = [a for a in instance.args if isinstance(a, np.ndarray)]
        target = None
        if spec.kind == "bitflip":
            target = self._bitflip_target(spec, instance)
            if target is not None and not any(target is a for a in arrays):
                arrays.append(target)
        snapshots = [(array, array.copy()) for array in arrays]
        steps_before = runner.interpreter_steps
        for attempt in range(1, policy.max_attempts + 1):
            fires = self._faults.fires(spec, attempt)
            try:
                if spec.kind == "hang" and fires:
                    run = runner.run(
                        name, *instance.args, step_budget=spec.hang_steps
                    )
                else:
                    run = runner.run(name, *instance.args)
                if spec.kind == "bitflip" and fires and target is not None:
                    flat = target.reshape(-1).view(np.uint8)
                    flat[spec.bit % flat.size] ^= np.uint8(
                        1 << (spec.bit % 8)
                    )
                    raise DataIntegrityError(
                        f"readback checksum mismatch after kernel {name!r} "
                        f"(injected bit-flip on "
                        f"{spec.buffer or 'first array argument'})",
                        kernel=name,
                        transient=spec.transient,
                    )
                return run
            except (WatchdogTimeout, DataIntegrityError) as error:
                for array, saved in snapshots:
                    np.copyto(array, saved)
                runner.reset_steps(steps_before)
                report.record_fault(
                    "kernel_launch", spec.kind, spec.transient, attempt,
                    kernel=name, detail=str(error),
                )
                if not spec.transient or attempt == policy.max_attempts:
                    raise
                report.record_retry(policy.backoff_s(attempt))
        raise AssertionError("unreachable: retry loop exits by return/raise")

    def _bitflip_target(
        self, spec: FaultSpec, instance: "KernelInstance"
    ) -> np.ndarray | None:
        if spec.buffer is not None:
            buffer = self.table.buffers.get(spec.buffer)
            if buffer is not None:
                return buffer.data
        for arg in instance.args:
            if isinstance(arg, np.ndarray) and arg.size:
                return arg
        return None

    # -- device-op work ----------------------------------------------------------------
    #
    # The scalar impls and the compiled forms of the device ops call
    # these, so each op's fault gate, state change and charge is written
    # once for every tier.

    def alloc(self, name: str, space: int, extents, dtype, sizes):
        """``device.alloc``: the data of a new buffer whose ``DYNAMIC``
        extents are taken, in order, from ``sizes``."""
        if self._faults is not None:
            self._fault_gate("alloc")
        sizes = iter(sizes)
        shape = tuple(
            int(next(sizes)) if extent == DYNAMIC else extent
            for extent in extents
        )
        return self.table.alloc(name, shape, dtype, space).data

    def dma_start(self, source, dest, h2d: bool) -> None:
        """``memref.dma_start``: copy ``source`` into ``dest`` and charge
        the transfer (host to device when ``h2d``)."""
        if self._faults is not None:
            self._fault_gate("dma_start")
        self.queue.enqueue_transfer(source, dest, h2d)

    def dma_wait(self) -> None:
        """``memref.wait``: functionally a no-op, but a fault site."""
        if self._faults is not None:
            self._fault_gate("dma_wait")

    def launch(self, instance: KernelInstance) -> None:
        """``device.kernel_launch``: run the kernel and charge it.

        With a fault plan armed, launch failures are resolved via retry,
        and hangs and bit-flips run under :meth:`_launch_with_rollback`.
        The queue charges only the final successful attempt, identical to
        the fault-free run.
        """
        name = instance.device_function
        spec = None
        if self._faults is not None:
            spec = self._faults.poll("kernel_launch", kernel=name)
            if spec is not None and spec.kind == "fail":
                self._faults.resolve(spec, "kernel_launch", kernel=name)
                spec = None
        if spec is None:
            run = self._runner.run(name, *instance.args)
        else:
            run = self._launch_with_rollback(instance, spec)
        self.queue.enqueue_task(run)


# -- device-op interpreter implementations --------------------------------------
#
# Ordinary global impls: each reaches the FpgaExecutor driving the
# interpreter through ``interp.host_executor`` (a device op without one
# raises) and adapts operands and results to the executor method or
# buffer-table call that does the op's work.  ``memref.dma_start`` and
# ``memref.wait`` are bound the same way in repro.dialects.memref.


def _no_executor(name: str) -> NoReturn:
    raise InterpreterError(
        f"{name} needs a device executor: run the host module through "
        "CompiledProgram.executor() (an FpgaExecutor)"
    )


def _executor(interp: Interpreter, op: Operation):
    executor = interp.host_executor
    if executor is None:
        _no_executor(op.name)
    return executor


def _name_space(op: Operation) -> tuple[str, int]:
    """The identifier and memory space (default 1) an op names."""
    space = op.attributes.get("memory_space")
    return (
        op.attributes["name"].value,
        space.value if isinstance(space, IntegerAttr) else 1,
    )


def _alloc_spec(op: Operation) -> tuple:
    """``device.alloc``'s identifier, memory space, extents and dtype."""
    ty = op.results[0].type
    return (*_name_space(op), ty.shape, element_dtype(ty.element_type))


@impl("device.alloc")
def _run_alloc(interp: Interpreter, op: Operation, env: dict):
    data = _executor(interp, op).alloc(
        *_alloc_spec(op), interp.operand_values(op, env)
    )
    interp.set_results(op, env, [data])


@impl("device.lookup")
def _run_lookup(interp: Interpreter, op: Operation, env: dict):
    buffer = _executor(interp, op).table.lookup(*_name_space(op))
    interp.set_results(op, env, [buffer.data])


@impl("device.data_check_exists")
def _run_check_exists(interp: Interpreter, op: Operation, env: dict):
    exists = _executor(interp, op).table.check_exists(_name_space(op)[0])
    interp.set_results(op, env, [exists])


@impl("device.data_acquire")
def _run_acquire(interp: Interpreter, op: Operation, env: dict):
    _executor(interp, op).table.acquire(_name_space(op)[0])


@impl("device.data_release")
def _run_release(interp: Interpreter, op: Operation, env: dict):
    _executor(interp, op).table.release(_name_space(op)[0])


@impl("device.kernel_create")
def _run_kernel_create(interp: Interpreter, op: Operation, env: dict):
    name = op.device_function
    if name is None:
        raise IRError(
            "device.kernel_create has no device_function: run "
            "extract-device-module before executing"
        )
    _executor(interp, op)
    instance = KernelInstance(name, interp.operand_values(op, env))
    interp.set_results(op, env, [instance])


@impl("device.kernel_launch")
def _run_kernel_launch(interp: Interpreter, op: Operation, env: dict):
    _executor(interp, op).launch(interp.get(env, op.operands[0]))


@impl("device.kernel_wait")
def _run_kernel_wait(interp: Interpreter, op: Operation, env: dict):
    _executor(interp, op)


# -- compiled-form emitters ------------------------------------------------------
#
# The host driver loop runs tens of thousands of device ops per run
# (SGESL n=512: ~35k), so each closure reads attributes parsed at compile
# time and makes at most one executor call.

from repro.ir.compile import CannotCompile, FnCompiler, compiled_for


@compiled_for("device.alloc")
def _emit_alloc(op: Operation, ctx: FnCompiler):
    name, space, extents, dtype = _alloc_spec(op)
    size_slots = tuple(ctx.slot_list(op.operands))
    res_i = ctx.slot(op.results[0])

    def run(interp, frame):
        executor = interp.host_executor
        if executor is None:
            _no_executor("device.alloc")
        frame[res_i] = executor.alloc(
            name, space, extents, dtype, [frame[s] for s in size_slots]
        )
    return run


@compiled_for("device.lookup")
def _emit_lookup(op: Operation, ctx: FnCompiler):
    name, space = _name_space(op)
    res_i = ctx.slot(op.results[0])

    def run(interp, frame):
        executor = interp.host_executor
        if executor is None:
            _no_executor("device.lookup")
        frame[res_i] = executor.table.lookup(name, space).data
    return run


@compiled_for("device.data_check_exists")
def _emit_check_exists(op: Operation, ctx: FnCompiler):
    name = _name_space(op)[0]
    res_i = ctx.slot(op.results[0])

    def run(interp, frame):
        executor = interp.host_executor
        if executor is None:
            _no_executor("device.data_check_exists")
        frame[res_i] = executor.table.check_exists(name)
    return run


@compiled_for("device.data_acquire")
def _emit_acquire(op: Operation, ctx: FnCompiler):
    name = _name_space(op)[0]

    def run(interp, frame):
        executor = interp.host_executor
        if executor is None:
            _no_executor("device.data_acquire")
        executor.table.acquire(name)
    return run


@compiled_for("device.data_release")
def _emit_release(op: Operation, ctx: FnCompiler):
    name = _name_space(op)[0]

    def run(interp, frame):
        executor = interp.host_executor
        if executor is None:
            _no_executor("device.data_release")
        executor.table.release(name)
    return run


@compiled_for("device.kernel_create")
def _emit_kernel_create(op: Operation, ctx: FnCompiler):
    name = op.device_function
    if name is None:
        # the scalar impl raises the "run extract-device-module" error
        raise CannotCompile("device.kernel_create without device_function")
    arg_slots = tuple(ctx.slot_list(op.operands))
    res_i = ctx.slot(op.results[0])

    def run(interp, frame):
        if interp.host_executor is None:
            _no_executor("device.kernel_create")
        frame[res_i] = KernelInstance(name, [frame[s] for s in arg_slots])
    return run


@compiled_for("device.kernel_launch")
def _emit_kernel_launch(op: Operation, ctx: FnCompiler):
    handle_i = ctx.slot(op.operands[0])

    def run(interp, frame):
        executor = interp.host_executor
        if executor is None:
            _no_executor("device.kernel_launch")
        executor.launch(frame[handle_i])
    return run


@compiled_for("device.kernel_wait")
def _emit_kernel_wait(op: Operation, ctx: FnCompiler):
    def run(interp, frame):
        if interp.host_executor is None:
            _no_executor("device.kernel_wait")
    return run

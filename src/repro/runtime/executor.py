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
* timing semantics — DMA ops advance the command-queue clock through the
  board's PCIe model and each kernel launch adds launch overhead plus the
  scheduled cycle count (pipeline fill + trips x achieved II).

Kernel trip counts are observed during functional interpretation, so
dynamically-bounded loops (SGESL's ``j = k+1, n``) are timed exactly.

Multi-CU builds price each launch as the makespan over compute units
(see :mod:`repro.runtime.kernel_runner`) and pay the enqueue overhead
once per CU.  When the bitstream carries ``stream_tile_bytes`` the DMA
model switches to *double-buffered streaming*: arrays larger than the
tile move in tile-sized transfers whose cost overlaps the adjacent
kernel's busy window — the first input tile and the last output tile
stay on the critical path, everything in between hides behind compute
(bounded by the compute window; leftovers are charged, never dropped).
Functional data movement is unchanged — streaming only re-times it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import NoReturn

import numpy as np

from repro.backend.vitis import Bitstream
from repro.dialects import builtin
from repro.dialects.memref import element_dtype
from repro.fpga.board import U280Board
from repro.ir.attributes import IntegerAttr
from repro.ir.core import IRError, Operation
from repro.ir.interpreter import Interpreter, InterpreterError, impl
from repro.ir.types import DYNAMIC
from repro.reliability.errors import DataIntegrityError, WatchdogTimeout
from repro.reliability.faults import FaultPlan, FaultSpec
from repro.reliability.report import RunReport
from repro.reliability.retry import DEFAULT_RETRY_POLICY, RetryPolicy
from repro.runtime.device_runtime import DeviceDataTable
from repro.runtime.opencl import ClCommandQueue, ClContext


@dataclass
class KernelInstance:
    """Runtime value of ``!device.kernelhandle``."""

    device_function: str
    args: list


@dataclass
class ExecutionResult:
    """Timing/result summary of one host-program run."""

    device_time_s: float
    kernel_time_s: float
    transfer_time_s: float
    launches: int
    transfers: int
    bytes_h2d: int
    bytes_d2h: int
    kernel_cycles: float
    returned: tuple = ()
    #: accumulated per-compute-unit cycle counts (empty for CU=1 builds)
    cu_cycles: tuple = ()
    #: interpreter steps retired (host program + device kernels) — the
    #: simulator-workload measure the perf-smoke bench tracks across PRs
    interpreter_steps: int = 0
    #: reliability record of the run (faults hit, retries, degradations)
    report: "RunReport | None" = None

    @property
    def device_time_ms(self) -> float:
        return self.device_time_s * 1e3


def _flow_jitter(key: str) -> float:
    """Deterministic run-to-run variability (sub-percent), standing in for
    the measurement noise visible in the paper's Tables 1/2.

    **Determinism is load-bearing.**  The jitter is a pure function of
    the SHA-256 digest of ``key`` — no global RNG, no wall clock, no
    process state — and ``key`` itself is built only from modelled
    values (flow label, entry function, the command queue's simulated
    time).  That is what lets the four engine tiers, retried runs, and
    the CI bench gate all reproduce ``device_time_ms`` bit-for-bit: any
    path that reaches the same simulated queue time gets the *same*
    jitter factor.  The factor is bounded to ±0.4 % of unity
    (``1.0 ± 0.004``); ``tests/runtime/test_flow_jitter.py`` pins both
    the bound and exact digest-derived values, so an accidental
    dependence on ambient state shows up as a test failure, not silent
    bench drift.
    """
    digest = hashlib.sha256(key.encode()).digest()
    unit = int.from_bytes(digest[:8], "big") / 2**64
    return 1.0 + (2.0 * unit - 1.0) * 0.004


class FpgaExecutor:
    """Executes a compiled host module against the simulated board."""

    def __init__(
        self,
        host_module: builtin.ModuleOp,
        bitstream: Bitstream,
        board: U280Board | None = None,
        flow_label: str = "fortran-openmp",
        *,
        compiled: bool = True,
        vectorize: bool = True,
        fault_plan: FaultPlan | None = None,
        retry_policy: RetryPolicy | None = None,
        watchdog_steps: int | None = None,
    ):
        self.host_module = host_module
        self.bitstream = bitstream
        self.board = board or bitstream.board
        self.flow_label = flow_label
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
        self.context = ClContext(self.board)
        self.table = DeviceDataTable(self.context)
        self.queue = ClCommandQueue(self.board)
        self._kernel_time_s = 0.0
        self._transfer_time_s = 0.0
        self._kernel_cycles = 0.0
        #: multi-CU pricing: N CUs mean N OpenCL enqueues per logical
        #: launch (overhead xN) and per-CU cycle accumulation
        self._compute_units = max(1, getattr(bitstream, "compute_units", 1))
        self._launch_overhead_s = (
            self.board.kernel_launch_overhead_s * self._compute_units
        )
        self._cu_cycles: tuple = ()
        #: double-buffered streaming state — ``None`` tile disables it
        self._stream_tile_bytes = getattr(bitstream, "stream_tile_bytes", None)
        self._stream_pending_in_s = 0.0
        self._stream_out_budget_s = 0.0
        if self._stream_tile_bytes is not None:
            # only a tile is resident at a time in the streamed model, so
            # arrays may exceed a bank's capacity
            self.table.oversubscribe = True
        from repro.runtime.kernel_runner import KernelRunner

        self._runner = KernelRunner(
            bitstream, compiled=compiled, vectorize=vectorize,
            watchdog_steps=watchdog_steps,
        )

    # -- public API --------------------------------------------------------------------

    def run(self, func_name: str, *args) -> ExecutionResult:
        report = RunReport(watchdog_budget=self.watchdog_steps)
        self.report = report
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
        if self._stream_pending_in_s:
            # input tiles still in flight with no kernel left to hide
            # behind: they finish on the critical path
            self.queue.now_s += self._stream_pending_in_s
            self._stream_pending_in_s = 0.0
        jitter = _flow_jitter(f"{self.flow_label}:{func_name}:{self.queue.now_s:.9f}")
        stats = self.queue.stats
        return ExecutionResult(
            device_time_s=self.queue.now_s * jitter,
            kernel_time_s=self._kernel_time_s,
            transfer_time_s=self._transfer_time_s,
            launches=stats["launches"],
            transfers=stats["transfers"],
            bytes_h2d=stats["bytes_h2d"],
            bytes_d2h=stats["bytes_d2h"],
            kernel_cycles=self._kernel_cycles,
            returned=returned,
            cu_cycles=self._cu_cycles,
            interpreter_steps=interp.steps + kernel_steps,
            report=report,
        )

    # -- accounting --------------------------------------------------------------------
    #
    # Every kernel launch and DMA transfer — any tier, fault-retry
    # path included — charges through these two methods, so
    # the multi-CU and streaming models apply uniformly across tiers.
    # At compute_units=1 with streaming off both reduce to exactly the
    # pre-existing arithmetic (one addition per charge, same operands),
    # keeping modelled times byte-identical to earlier baselines.

    def _charge_kernel_run(self, run) -> None:
        """Charge one successful kernel execution to the clocks."""
        self._kernel_cycles += run.cycles
        self._kernel_time_s += run.seconds
        if run.per_cu_cycles:
            if self._cu_cycles:
                self._cu_cycles = tuple(
                    have + new
                    for have, new in zip(self._cu_cycles, run.per_cu_cycles)
                )
            else:
                self._cu_cycles = run.per_cu_cycles
        busy = run.seconds
        if self._stream_pending_in_s:
            # in-flight input tiles stream in while the kernel computes;
            # the longer of the two bounds the launch window
            busy = max(busy, self._stream_pending_in_s)
            self._stream_pending_in_s = 0.0
        self.queue.now_s += self._launch_overhead_s + busy
        # output tiles may hide behind this window (consumed by d2h)
        self._stream_out_budget_s = busy
        self.queue._counters["launches"] += 1

    def _charge_dma(self, nbytes: int, h2d: bool) -> None:
        """Charge one host<->device transfer of ``nbytes``."""
        counters = self.queue._counters
        tile = self._stream_tile_bytes
        if tile is None or nbytes <= tile:
            seconds = self.board.dma_time_s(nbytes)
            self.queue.now_s += seconds
            self._transfer_time_s += seconds
            counters["transfers"] += 1
            counters["bytes_h2d" if h2d else "bytes_d2h"] += nbytes
            return
        # Double-buffered streaming: ceil(nbytes/tile) tile transfers,
        # each paying the full PCIe model (tiling is not free — every
        # tile pays its own latency, visible in transfer_time_s).
        full, rem = divmod(nbytes, tile)
        sizes = [tile] * full + ([rem] if rem else [])
        times = [self.board.dma_time_s(size) for size in sizes]
        total = sum(times)
        self._transfer_time_s += total
        counters["transfers"] += len(sizes)
        counters["bytes_h2d" if h2d else "bytes_d2h"] += nbytes
        if h2d:
            # the first tile must land before compute starts; the rest
            # stream in behind it, overlapped with the next launch
            self.queue.now_s += times[0]
            self._stream_pending_in_s += total - times[0]
        else:
            # all but the last tile can stream out during the preceding
            # kernel's busy window; the overlap is bounded by that
            # window and shared between successive outputs
            overlap = min(total - times[-1], self._stream_out_budget_s)
            self._stream_out_budget_s -= overlap
            self.queue.now_s += total - overlap

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
            buffer = self.context.buffers.get(spec.buffer)
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
        np.copyto(dest, source)
        self._charge_dma(int(np.asarray(source).nbytes), h2d)

    def dma_wait(self) -> None:
        """``memref.wait``: functionally a no-op, but a fault site."""
        if self._faults is not None:
            self._fault_gate("dma_wait")

    def launch(self, instance: KernelInstance) -> None:
        """``device.kernel_launch``: run the kernel and charge it.

        With a fault plan armed, launch failures are resolved via retry,
        and hangs and bit-flips run under :meth:`_launch_with_rollback`.
        Accounting (cycles, queue time, counters) is charged only for the
        final successful attempt, identical to the fault-free run.
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
        self._charge_kernel_run(run)


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

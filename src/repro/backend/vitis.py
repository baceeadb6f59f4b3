"""Simulated Vitis toolchain (``v++``).

Takes the device module (in HLS-dialect form), runs the full backend
path the paper describes — *lower HLS to func call* -> LLVM-IR ->
AMD-primitive mapping + LLVM-7 downgrade -> HLS synthesis -> "RTL"
packaging — and returns a :class:`Bitstream`: kernel schedules, a
utilisation report and the build artifacts.

The synthesis step is the :class:`~repro.fpga.scheduler.HlsScheduler`;
place-and-route is abstracted into the resource totals (shell + kernels).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.backend.amd_hls import AmdHlsArtifact, prepare_for_vitis
from repro.backend.llvm_ir import emit_llvm_ir
from repro.dialects import builtin, func
from repro.fpga.board import U280Board
from repro.fpga.resources import (
    ResourcePercentages,
    ResourceUsage,
    cu_budget_violation,
    shell_usage,
)
from repro.fpga.scheduler import HlsScheduler, KernelSchedule
from repro.reliability.errors import DeviceBuildError, wrap_error


@dataclass
class Bitstream:
    """Result of a (simulated) v++ hardware build."""

    kernels: dict[str, KernelSchedule]
    device_module: builtin.ModuleOp
    board: U280Board
    amd_artifact: AmdHlsArtifact
    #: the post-HLS-lowering LLVM IR before AMD mapping (for inspection)
    llvm_ir: str = ""
    #: physical copies of every kernel on the device; the runtime shards
    #: each kernel's outermost loop across the copies and prices the
    #: launch as the makespan over CUs (see ``runtime/kernel_runner.py``)
    compute_units: int = 1
    #: double-buffered DMA streaming tile size (None = whole-array
    #: transfers); arrays above the tile stream through in tiles whose
    #: transfer overlaps kernel compute in the executor's cycle model
    stream_tile_bytes: int | None = None

    @property
    def resources(self) -> ResourceUsage:
        total = shell_usage()
        for kernel in self.kernels.values():
            total = total + kernel.kernel_resources.replicated(
                self.compute_units
            )
        return total

    def utilization(self) -> ResourcePercentages:
        return self.resources.percentages(self.board.resources)

    def report(self) -> str:
        """Vitis-style utilisation summary."""
        pct = self.utilization()
        lines = [
            "== Vitis (simulated) utilization report ==",
            f"Platform: xilinx_u280  kernels: {sorted(self.kernels)}"
            + (
                f"  (x{self.compute_units} compute units)"
                if self.compute_units > 1
                else ""
            ),
            f"LUT : {self.resources.luts:>9}  ({pct.lut:.2f}%)",
            f"BRAM: {self.resources.bram_36k:>9}  ({pct.bram:.2f}%)",
            f"DSP : {self.resources.dsp:>9}  ({pct.dsp:.2f}%)",
        ]
        for name, kernel in sorted(self.kernels.items()):
            for loop_schedule in kernel.loops.values():
                lines.append(
                    f"  {name}: loop II={loop_schedule.achieved_ii} "
                    f"(dep={loop_schedule.dependence_ii}, "
                    f"mem={loop_schedule.memory_ii}, "
                    f"unroll={loop_schedule.unroll_factor})"
                )
        return "\n".join(lines)


class VitisCompiler:
    """The ``v++`` command-line tool, as a class."""

    def __init__(self, board: U280Board | None = None):
        self.board = board or U280Board()

    def compile(
        self,
        device_module: builtin.ModuleOp,
        *,
        compute_units: int = 1,
        stream_tile_bytes: int | None = None,
    ) -> Bitstream:
        """Hardware build: schedule/bind every kernel, produce artifacts.

        The module must already be in HLS-dialect form (post
        *lower-omp-to-hls*); this method does not mutate it — the LLVM
        path runs on a clone so the scheduler sees the ``hls`` ops.

        ``compute_units=N`` replicates every kernel N× on the fabric;
        the replicated design is validated against the board's LUT/DSP/
        BRAM place-and-route budgets and an over-budget N raises a typed
        :class:`DeviceBuildError` (the build never silently clamps).
        ``stream_tile_bytes`` records the double-buffered streaming tile
        the executor's DMA model uses.
        """
        if device_module.target != "fpga":
            raise DeviceBuildError(
                "VitisCompiler.compile expects the target=\"fpga\" module"
            )
        if not isinstance(compute_units, int) or compute_units < 1:
            raise DeviceBuildError(
                f"compute_units must be a positive integer, got "
                f"{compute_units!r}"
            )
        if stream_tile_bytes is not None and (
            not isinstance(stream_tile_bytes, int) or stream_tile_bytes < 1
        ):
            raise DeviceBuildError(
                f"stream_tile_bytes must be a positive integer or None, "
                f"got {stream_tile_bytes!r}"
            )
        scheduler = HlsScheduler(self.board)
        kernels: dict[str, KernelSchedule] = {}
        for fn in device_module.walk_type(func.FuncOp):
            if not fn.body.ops:
                continue  # declaration
            try:
                kernels[fn.sym_name] = scheduler.schedule(fn)
            except DeviceBuildError:
                raise
            except Exception as error:
                raise wrap_error(
                    error,
                    DeviceBuildError,
                    kernel=fn.sym_name,
                    context="hls scheduling",
                ) from error

        # Budget validation: the replicated kernel logic must fit the
        # device.  Checked per build (not per kernel) because all CUs of
        # all kernels share one fabric.
        kernel_total = ResourceUsage()
        for kernel in kernels.values():
            kernel_total = kernel_total + kernel.kernel_resources
        violation = cu_budget_violation(
            kernel_total, self.board.resources, compute_units
        )
        if violation is not None:
            raise DeviceBuildError(
                f"multi-CU build does not fit the device: {violation}",
                context=f"kernels={sorted(kernels)}",
            )

        # LLVM path (on a clone, preserving the HLS-form module).
        from repro.transforms.lower_hls_to_func import LowerHlsToFuncPass

        clone = device_module.clone()
        LowerHlsToFuncPass().apply(clone)
        llvm_ir = emit_llvm_ir(clone)
        artifact = prepare_for_vitis(llvm_ir)

        return Bitstream(
            kernels=kernels,
            device_module=device_module,
            board=self.board,
            amd_artifact=artifact,
            llvm_ir=llvm_ir,
            compute_units=compute_units,
            stream_tile_bytes=stream_tile_bytes,
        )

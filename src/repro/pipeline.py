"""One-shot compiler driver: Fortran+OpenMP source -> host C++ + FPGA
bitstream (Figure 2 of the paper).

:func:`compile_fortran` is the one-shot form of the staged
:class:`repro.session.Session` API — it builds a fresh session, runs
every stage once and returns the assembled
:class:`~repro.session.CompiledProgram`.  Use a :class:`Session` directly
when you want to re-run later stages with different
:class:`~repro.session.KernelOverrides` (DSE sweeps, pipeline
introspection) without re-parsing the source or re-building the host
side::

    from repro.session import KernelOverrides, Session

    session = Session(SOURCE)
    base = session.program()
    wide = session.program(KernelOverrides(simdlen=8))   # device build only

Memory-space policies, kernel knobs and IR snapshots are configured on
the session: :class:`~repro.session.TargetConfig`,
:class:`~repro.session.KernelOverrides` and
:class:`~repro.ir.pass_manager.Instrumentation`.

Pipeline stages (each named as in the paper's Figure 2):

1. Flang + [3]: parse/sema/lower -> FIR+omp -> core dialects (+omp)
2. ``lower omp mapped data``  — omp.map_info -> device data ops
3. ``lower omp target region`` — omp.target -> kernel create/launch/wait
4. kernel extraction — device code into the ``target="fpga"`` module
5. host: C++ + OpenCL printing;  device: ``lower omp loops to HLS``
6. [20] ``lower HLS to func call`` -> LLVM-IR -> [19] AMD mapping +
   LLVM-7 downgrade -> Vitis HLS synthesis -> bitstream
"""

from __future__ import annotations

from repro.fpga.board import U280Board
from repro.ir.pass_manager import PipelineStage
from repro.session import CompiledProgram, Session, TargetConfig

__all__ = [
    "CompiledProgram",
    "PipelineStage",
    "compile_fortran",
    "compile_workload",
]


def compile_fortran(
    source: str, *, board: U280Board | None = None
) -> CompiledProgram:
    """Run the full Figure-2 pipeline over Fortran+OpenMP source."""
    return Session(source, target=TargetConfig(board=board)).program()


def compile_workload(name: str, **kwargs) -> CompiledProgram:
    """Compile a registered gallery workload by name (see
    :mod:`repro.workloads`); ``kwargs`` forward to
    :func:`compile_fortran`."""
    from repro.workloads import get_workload

    return compile_fortran(get_workload(name).source, **kwargs)

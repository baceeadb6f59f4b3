"""repro — an MLIR pipeline for offloading Fortran to FPGAs via OpenMP.

Reproduction of Rodriguez-Canal, Katz & Brown (SC Workshops '25): a pure
Python implementation of the complete flow — an MLIR/xDSL-style IR
infrastructure, a Fortran+OpenMP frontend, the paper's ``device`` dialect
and transformation passes, the HLS dialect of Stencil-HMLS, the AMD HLS
backend bridge, a simulated Vitis toolchain and U280 board, and the
OpenCL-style host runtime.

The public API is the staged session (each stage computed once, cached
by its options, later stages re-runnable with different overrides)::

    from repro import KernelOverrides, Session

    session = Session(FORTRAN_SOURCE)
    program = session.program()            # full Figure-2 flow
    result = program.run()                 # simulated U280 execution
    print(program.bitstream.report())      # Vitis-style utilisation

    wide = session.program(KernelOverrides(simdlen=8))  # device build only

``compile_fortran(source, board=None)`` is the one-shot form, a fresh
session's ``program()``.  Pass pipelines are declarative
(``PassManager.parse("lower-omp-to-hls{reduction_copies=4},cse")``) and
observable through :class:`Instrumentation` (stage snapshots, per-pass
timing, artifact-build counters).

Cross-process, the compile service (:mod:`repro.service`) fronts a
content-addressed :class:`~repro.service.ArtifactStore` with a process
pool — identical requests hit cache (or coalesce into one in-flight
build) instead of recompiling::

    from repro import ArtifactStore, CompileRequest, CompileService

    with CompileService(store=ArtifactStore("/var/cache/repro")) as svc:
        program = svc.compile(CompileRequest(FORTRAN_SOURCE)).artifact
"""

from repro.analysis import Diagnostic, DiagnosticEngine
from repro.ir.pass_manager import Instrumentation, PassManager, PipelineStage
from repro.pipeline import CompiledProgram, compile_fortran, compile_workload
from repro.service import (
    ArtifactKey,
    ArtifactStore,
    CompileRequest,
    CompileService,
)
from repro.session import (
    DeviceBuild,
    FrontendArtifact,
    HostDeviceArtifact,
    KernelOverrides,
    Session,
    TargetConfig,
    device_pipeline,
    host_device_pipeline,
)

__version__ = "1.3.0"

__all__ = [
    "ArtifactKey",
    "ArtifactStore",
    "CompileRequest",
    "CompileService",
    "CompiledProgram",
    "DeviceBuild",
    "Diagnostic",
    "DiagnosticEngine",
    "FrontendArtifact",
    "HostDeviceArtifact",
    "Instrumentation",
    "KernelOverrides",
    "PassManager",
    "PipelineStage",
    "Session",
    "TargetConfig",
    "compile_fortran",
    "compile_workload",
    "device_pipeline",
    "host_device_pipeline",
    "__version__",
]

"""Frontend driver: Fortran source -> FIR module -> core-dialect module.

This is the "Flang + [3]" half of the paper's Figure 1/Figure 2 flow.
Both entry points accept an optional
:class:`~repro.ir.pass_manager.Instrumentation`: the frontend counts its
compiles (``frontend_compiles`` — the artifact-reuse evidence the DSE
sweep asserts on) and records the ``fir+omp``/``core+omp`` stage
snapshots when IR capture is enabled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dialects import builtin
from repro.frontend.fir_to_core import FirToCorePass
from repro.frontend.lowering import lower_program
from repro.frontend.parser import parse_source
from repro.frontend.sema import ProgramInfo, analyze
from repro.ir.pass_manager import Instrumentation, PassManager, PipelineStage
from repro.ir.verifier import verify
from repro.reliability.errors import FrontendError, ReproError, wrap_error


@dataclass
class FrontendArtifact:
    """The frontend's product: the module (FIR+omp from
    :func:`compile_to_fir`, core+omp from :func:`compile_to_core`), the
    analyzed program and the stage snapshots recorded while building it.

    :meth:`repro.session.Session.frontend` caches it as it is and never
    mutates it — later stages clone the module before running their
    pipelines."""

    module: builtin.ModuleOp
    program_info: ProgramInfo
    snapshots: list[PipelineStage] = field(default_factory=list)


def _stage(name: str, fn, *args):
    """Run one frontend stage, adopting failures into the taxonomy.

    The adopted error still satisfies ``isinstance`` for its original
    class (``FortranSyntaxError``, ``SemanticError``, ...), and the
    ``from error`` chain keeps the originating source line/traceback.
    """
    try:
        return fn(*args)
    except ReproError:
        raise  # already carries stage context
    except Exception as error:
        raise wrap_error(
            error, FrontendError, context=f"frontend:{name}"
        ) from error


def compile_to_fir(
    source: str, *, instrumentation: Instrumentation | None = None
) -> FrontendArtifact:
    """Parse + analyze + lower Fortran source to the FIR+omp module."""
    tree = _stage("parse", parse_source, source)
    info = _stage("sema", analyze, tree)
    module = _stage("lower", lower_program, info)
    _stage("verify", verify, module)
    artifact = FrontendArtifact(module=module, program_info=info)
    if instrumentation is not None:
        snap = instrumentation.snapshot("fir+omp", module)
        if snap is not None:
            artifact.snapshots.append(snap)
    return artifact


def compile_to_core(
    source: str, *, instrumentation: Instrumentation | None = None
) -> FrontendArtifact:
    """Full frontend path: Fortran -> FIR -> core dialects (+omp)."""
    artifact = compile_to_fir(source, instrumentation=instrumentation)
    pm = PassManager(instrumentation=instrumentation)
    pm.add(FirToCorePass())
    _stage("fir-to-core", pm.run, artifact.module)
    if instrumentation is not None:
        instrumentation.count("frontend_compiles")
        snap = instrumentation.snapshot("core+omp", artifact.module)
        if snap is not None:
            artifact.snapshots.append(snap)
    return artifact

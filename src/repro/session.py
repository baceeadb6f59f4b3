"""Staged compiler sessions: the Figure-2 flow as composable, cached stages.

One :class:`Session` owns one Fortran+OpenMP source and a
:class:`TargetConfig` (the board and the memory-space policy); the
pipeline is exposed as three stage products, each computed once and
cached on the session::

    Session(source)
      .frontend()                    # Flang + [3]: source -> core+omp IR
      .host_device()                 # data/kernel passes, module split,
                                     #   host C++
      .device_build(KernelOverrides) # omp->HLS + Vitis, assembled into a
                                     #   CompiledProgram (keyed by overrides)

``program(overrides)`` is ``device_build(overrides)``: the same cached
:class:`CompiledProgram`, under the name the one-shot form and the
compile service use.

Later stages re-run with different :class:`KernelOverrides` (simdlen,
reduction copies, bundle layout) *without* re-parsing the source or
re-building the host side — the artifact reuse that makes design-space
exploration (:mod:`repro.dse`) sweep at device-build cost instead of
full-pipeline cost.  Every stage pipeline is a declarative
:class:`~repro.ir.pass_manager.PassManager` spec (``parse``/``spec``
round-trip) that verifies the module after every pass, and a
session-wide :class:`~repro.ir.pass_manager.Instrumentation` records
stage snapshots, per-pass timing and artifact-build counters.

:func:`repro.pipeline.compile_fortran` is the one-shot form:
``compile_fortran(source, board=board)`` is
``Session(source, target=TargetConfig(board=board)).program()``.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from typing import NoReturn

from repro.backend.host_codegen import generate_host_code
from repro.backend.vitis import Bitstream, VitisCompiler
from repro.dialects import builtin
from repro.fpga.board import U280Board
from repro.frontend.driver import FrontendArtifact, compile_to_core
from repro.frontend.sema import ProgramInfo
from repro.ir.pass_manager import Instrumentation, PassManager, PipelineStage
from repro.reliability.errors import (
    DeviceBuildError,
    FrontendError,
    LoweringError,
    ReproError,
    wrap_error,
)
from repro.runtime.executor import ExecutionResult, FpgaExecutor
from repro.transforms import (
    CanonicalizePass,
    CsePass,
    ExtractDeviceModulePass,
    LowerOmpMappedDataPass,
    LowerOmpTargetRegionPass,
    LowerOmpToHlsPass,
    split_host_device,
)
from repro.transforms.lower_omp_mapped_data import check_memory_space_mode


# ---------------------------------------------------------------------------
# Configuration values (stage cache keys)
# ---------------------------------------------------------------------------

#: Bump when the canonical field serialization below changes shape, so
#: digests from different schema versions can never collide silently.
_DIGEST_VERSION = 1


def _canonical_value(value) -> str:
    """Deterministic text form of a config field value.

    Dataclasses render as ``ClassName(name=value,...)`` with the fields
    *sorted by name* and canonicalized recursively; containers keep
    order (they are part of the configured value); scalars use ``repr``.
    Sorted + versioned rendering is what makes :meth:`TargetConfig.digest`
    and :meth:`KernelOverrides.digest` stable across processes and PRs.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        parts = ",".join(
            f"{f.name}={_canonical_value(getattr(value, f.name))}"
            for f in sorted(dataclasses.fields(value), key=lambda f: f.name)
        )
        return f"{type(value).__name__}({parts})"
    if isinstance(value, (list, tuple)):
        inner = ",".join(_canonical_value(v) for v in value)
        return f"[{inner}]"
    if isinstance(value, dict):
        inner = ",".join(
            f"{k!r}:{_canonical_value(value[k])}" for k in sorted(value)
        )
        return f"{{{inner}}}"
    if isinstance(value, (type(None), bool, int, float, str, bytes)):
        return repr(value)
    raise TypeError(
        f"cannot canonicalize {type(value).__name__!r} into a stable "
        "config digest"
    )


def _config_digest(label: str, value) -> str:
    """SHA-256 over the versioned canonical form of a config object."""
    text = f"{label}/v{_DIGEST_VERSION}|{_canonical_value(value)}"
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class TargetConfig:
    """Session-wide target description: the board plus the memory-space
    policy mode (``"single"`` or ``"round_robin"``) of the host/device
    build.  Each build gets a fresh policy of that mode, so bank
    assignment restarts per build; the bank count is the
    ``lower-omp-mapped-data{num_banks=...}`` pass option."""

    board: U280Board | None = None
    memory_space_policy: str = "single"

    def __post_init__(self):
        check_memory_space_mode(self.memory_space_policy)

    def resolved_board(self) -> U280Board:
        return self.board or U280Board()

    def digest(self) -> str:
        """Stable content digest of this target (sorted, versioned field
        serialization) — one component of the compile service's
        content-addressed artifact keys."""
        board = self.resolved_board()
        text = (
            f"board={_canonical_value(board)}|"
            f"policy={self.memory_space_policy!r}"
        )
        return _config_digest("TargetConfig", text)


@dataclass(frozen=True)
class KernelOverrides:
    """Device-build knobs honored inside ``lower-omp-to-hls``.

    ``simdlen=None`` respects the source directive's factor; an integer
    overrides it (1 disables unrolling) — the knob that replaced the DSE
    sweep's source-text rewriting.  Hashable: it is the device-build
    cache key.

    ``compute_units`` replicates every kernel N× on the device and
    shards the iteration space of each kernel's outermost loop across
    the copies (contiguous blocks, remainder handled); the build is
    validated against the board's LUT/DSP budgets and an over-budget
    replication raises a typed
    :class:`~repro.reliability.errors.DeviceBuildError`.
    ``stream_tile_bytes`` arms double-buffered DMA streaming: arrays
    larger than the tile flow through in tiles whose transfer overlaps
    kernel compute in the cycle model (and may oversubscribe a single
    memory bank, since only a tile is resident at a time).
    """

    simdlen: int | None = None
    reduction_copies: int = 8
    shared_bundle: bool = False
    target_ii: int = 1
    compute_units: int = 1
    stream_tile_bytes: int | None = None

    def digest(self) -> str:
        """Stable content digest (sorted, versioned field serialization)
        — the device-build component of content-addressed artifact keys."""
        return _config_digest("KernelOverrides", self)


def _stage_failed(error: Exception, error_cls: type, context: str) -> NoReturn:
    """Re-raise the failure of a stage.  A :class:`ReproError`
    propagates unwrapped; anything else is wrapped as ``error_cls``.

    A stage caches its product only once it is complete, so a failed or
    interrupted stage (a KeyboardInterrupt propagates as it is) leaves
    nothing behind and the next call retries it.
    """
    if isinstance(error, ReproError):
        raise error
    raise wrap_error(error, error_cls, context=context) from error


def _snapshots(instr: Instrumentation, *named) -> list[PipelineStage]:
    """Record a snapshot per ``(name, module or IR text)`` pair and return
    the recorded ones (none unless the instrumentation captures IR)."""
    snapshots = [instr.snapshot(name, ir) for name, ir in named]
    return [snap for snap in snapshots if snap is not None]


# ---------------------------------------------------------------------------
# Declarative stage pipelines
# ---------------------------------------------------------------------------


def host_device_pipeline(
    policy: str = "single",
    *,
    instrumentation: Instrumentation | None = None,
) -> PassManager:
    """Stages 2-4 of Figure 2: data mapping, target regions, extraction,
    assigning memory spaces under the policy mode ``policy``."""
    pm = PassManager(instrumentation=instrumentation)
    pm.add(
        LowerOmpMappedDataPass(policy),
        LowerOmpTargetRegionPass(),
        ExtractDeviceModulePass(),
    )
    return pm


def device_pipeline(
    overrides: KernelOverrides | None = None,
    *,
    instrumentation: Instrumentation | None = None,
) -> PassManager:
    """Stage 5 (device side): omp->HLS lowering plus cleanup."""
    o = overrides or KernelOverrides()
    pm = PassManager(instrumentation=instrumentation)
    pm.add(
        LowerOmpToHlsPass(
            reduction_copies=o.reduction_copies,
            target_ii=o.target_ii,
            shared_bundle=o.shared_bundle,
            simdlen=o.simdlen,
        ),
        CanonicalizePass(),
        CsePass(),
    )
    return pm


# ---------------------------------------------------------------------------
# Stage products
# ---------------------------------------------------------------------------


@dataclass
class HostDeviceArtifact:
    """Stages 2-5 (host) output: split modules plus generated host C++.

    ``device_module`` is the *pre-HLS* device module (omp form); it is
    the pristine input every device build clones."""

    host_module: builtin.ModuleOp
    device_module: builtin.ModuleOp
    host_cpp: str
    snapshots: list[PipelineStage] = field(default_factory=list)


@dataclass
class CompiledProgram:
    """Everything the flow produces for one Fortran source file: the
    product of :meth:`Session.device_build`.

    Programs built by one :class:`Session` share the frontend and
    host-side artifacts; only the device build differs between them."""

    host_module: builtin.ModuleOp
    device_module: builtin.ModuleOp
    bitstream: Bitstream
    host_cpp: str
    program_info: ProgramInfo
    board: U280Board
    stages: list[PipelineStage] = field(default_factory=list)

    def executor(
        self,
        *,
        compiled: bool = True,
        vectorize: bool = True,
        fault_plan=None,
        retry_policy=None,
        watchdog_steps: int | None = None,
    ) -> FpgaExecutor:
        """Fresh executor (fresh device state) for this program.

        ``compiled``/``vectorize`` select the execution tiers (scalar
        interpreter, block-JIT, NumPy loop evaluation); every combination
        must produce bit-identical results and accounting.

        Reliability knobs (see :mod:`repro.reliability`): ``fault_plan``
        arms seeded fault injection, ``retry_policy`` bounds the
        transient-fault retries and ``watchdog_steps`` sets the default
        per-kernel step budget.
        """
        return FpgaExecutor(
            self.host_module, self.bitstream,
            compiled=compiled, vectorize=vectorize,
            fault_plan=fault_plan, retry_policy=retry_policy,
            watchdog_steps=watchdog_steps,
        )

    def run(self, func_name: str | None = None, *args) -> ExecutionResult:
        """Compile-and-go convenience: run the main program unit."""
        if func_name is None:
            func_name = self.program_info.main().unit.name
        return self.executor().run(func_name, *args)

    @property
    def stage_names(self) -> list[str]:
        return [s.name for s in self.stages]


# ---------------------------------------------------------------------------
# The session
# ---------------------------------------------------------------------------


class Session:
    """A staged compilation of one Fortran+OpenMP source.

    Each stage is computed lazily, once, and cached (device builds keyed
    by their overrides); see the module docstring for the stage graph.
    """

    def __init__(
        self,
        source: str,
        *,
        target: TargetConfig | None = None,
        instrumentation: Instrumentation | None = None,
    ):
        self.source = source
        self.target = target or TargetConfig()
        self.board = self.target.resolved_board()
        self.instrumentation = instrumentation or Instrumentation()
        self._frontend: FrontendArtifact | None = None
        self._host_device: HostDeviceArtifact | None = None
        self._builds: dict[str, CompiledProgram] = {}

    # -- stage 1 ---------------------------------------------------------------------

    def frontend(self) -> FrontendArtifact:
        """Flang + [3]: parse/sema/lower to the core+omp module (once).

        A failed compile caches nothing: the next call retries from the
        source, so a session survives (for example) a transient
        instrumentation failure without holding a poisoned artifact.
        """
        if self._frontend is None:
            try:
                self._frontend = compile_to_core(
                    self.source, instrumentation=self.instrumentation
                )
            except Exception as error:
                _stage_failed(error, FrontendError, "session.frontend")
        return self._frontend

    # -- stages 2-5 (host) -------------------------------------------------------------

    def host_device(self) -> HostDeviceArtifact:
        """Device-dialect lowering, module split and host C++ generation
        under the target's memory-space policy (once)."""
        if self._host_device is None:
            frontend = self.frontend()
            try:
                instr = self.instrumentation
                module = frontend.module.clone()
                host_device_pipeline(
                    self.target.memory_space_policy, instrumentation=instr
                ).run(module)
                snapshots = _snapshots(instr, ("device-dialect", module))
                host_module, device_module = split_host_device(module)
                instr.count("host_device_builds")
                self._host_device = HostDeviceArtifact(
                    host_module=host_module,
                    device_module=device_module,
                    host_cpp=generate_host_code(host_module),
                    snapshots=snapshots,
                )
            except Exception as error:
                _stage_failed(error, LoweringError, "session.host_device")
        return self._host_device

    # -- stages 5 (device) + 6 ---------------------------------------------------------

    def device_build(
        self, overrides: KernelOverrides | None = None
    ) -> CompiledProgram:
        """HLS lowering + simulated Vitis synthesis, assembled with the
        frontend and host artifacts into a :class:`CompiledProgram`;
        cached per overrides — the only work a DSE sweep repeats."""
        overrides = overrides or KernelOverrides()
        # Cache key: the stage-content digest, not the object — two
        # override instances with equal fields share one build, and the
        # same digest addresses the program in the cross-process store.
        key = overrides.digest()
        program = self._builds.get(key)
        if program is not None:
            return program
        frontend = self.frontend()
        host = self.host_device()
        # Failure discipline: a raise anywhere mid-build must leave the
        # session reusable — nothing is cached (never a partial
        # artifact) and the frontend/host caches stay valid, so a retry
        # with the same overrides re-runs only this stage.
        try:
            instr = self.instrumentation
            device_module = host.device_module.clone()
            device_pipeline(overrides, instrumentation=instr).run(
                device_module
            )
            snapshots = _snapshots(instr, ("device-hls", device_module))
            bitstream = VitisCompiler(self.board).compile(
                device_module,
                compute_units=overrides.compute_units,
                stream_tile_bytes=overrides.stream_tile_bytes,
            )
            snapshots += _snapshots(
                instr,
                ("llvm-ir", bitstream.llvm_ir),
                ("amd-hls-llvm7", bitstream.amd_artifact.llvm_ir),
            )
            instr.count("device_builds")
            program = self._builds[key] = CompiledProgram(
                host_module=host.host_module,
                device_module=device_module,
                bitstream=bitstream,
                host_cpp=host.host_cpp,
                program_info=frontend.program_info,
                board=self.board,
                stages=frontend.snapshots + host.snapshots + snapshots,
            )
        except Exception as error:
            _stage_failed(
                error, DeviceBuildError,
                f"device_build overrides={overrides!r}",
            )
        return program

    def program(
        self, overrides: KernelOverrides | None = None
    ) -> CompiledProgram:
        """The :class:`CompiledProgram` for ``overrides``: the cached
        :meth:`device_build`."""
        return self.device_build(overrides)

    # -- cache management --------------------------------------------------------------

    def release_build(self, overrides: KernelOverrides | None = None) -> bool:
        """Drop one device build from the cache (the bitstream and the
        lowered module are the heavy artifacts; a sweep that has already
        extracted its numbers releases each point to keep memory flat).
        Returns whether a cached build was evicted."""
        key = (overrides or KernelOverrides()).digest()
        return self._builds.pop(key, None) is not None

    # -- introspection -----------------------------------------------------------------

    @property
    def counters(self):
        """Shortcut to the instrumentation's artifact-build counters."""
        return self.instrumentation.counters

    def diagnostics(self):
        """Kernel static-analysis findings for this session's source.

        Runs the ``check-kernels`` rules (races, carried dependences,
        typed verification — see :mod:`repro.analysis`) over the cached
        frontend module and returns the sorted
        :class:`~repro.analysis.diagnostics.Diagnostic` list.  Compiling
        a racy kernel does not fail — this is the API to ask *before*
        building whether the source deserves it.
        """
        from repro.analysis import check_module

        return check_module(self.frontend().module).sorted()

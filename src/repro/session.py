"""Staged compiler sessions: the Figure-2 flow as composable, cached stages.

One :class:`Session` owns one Fortran+OpenMP source and a
:class:`TargetConfig`; the pipeline is exposed as four artifacts, each
computed once and cached on the session keyed by its options::

    Session(source)
      .frontend()                    # Flang + [3]: source -> core+omp IR
      .host_device(policy)           # data/kernel passes, module split,
                                     #   host C++  (keyed by policy)
      .device_build(KernelOverrides) # omp->HLS + Vitis  (keyed by overrides)
      .program(KernelOverrides)      # assembled CompiledProgram view

Later stages re-run with different :class:`KernelOverrides` (simdlen,
reduction copies, bundle layout) *without* re-parsing the source or
re-building the host side — the artifact reuse that makes design-space
exploration (:mod:`repro.dse`) sweep at device-build cost instead of
full-pipeline cost.  Every stage pipeline is a declarative
:class:`~repro.ir.pass_manager.PassManager` spec (``parse``/``spec``
round-trip), and a session-wide
:class:`~repro.ir.pass_manager.Instrumentation` records stage snapshots,
per-pass timing and artifact-build counters.

:func:`repro.pipeline.compile_fortran` is the one-shot form:
``compile_fortran(source, board=board)`` is
``Session(source, target=TargetConfig(board=board)).program()``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import warnings
from dataclasses import dataclass, field
from typing import NoReturn

from repro.backend.host_codegen import generate_host_code
from repro.backend.vitis import Bitstream, VitisCompiler
from repro.dialects import builtin
from repro.fpga.board import U280Board
from repro.frontend.driver import compile_to_core
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
    MemorySpacePolicy,
    split_host_device,
)


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
    """Session-wide target description: the board plus the default
    memory-space policy used when a stage is built without an explicit
    policy."""

    board: U280Board | None = None
    memory_space_policy: "MemorySpacePolicy | str | None" = None

    def resolved_board(self) -> U280Board:
        return self.board or U280Board()

    def digest(self) -> str:
        """Stable content digest of this target (sorted, versioned field
        serialization) — one component of the compile service's
        content-addressed artifact keys.

        A caller-supplied *mutable* :class:`MemorySpacePolicy` object is
        snapshotted (mode, banks, current assignments) with a
        :class:`DeprecationWarning`: later mutation of the object would
        silently invalidate the digest, so pass the policy mode string
        instead.
        """
        policy = self.memory_space_policy
        if policy is not None and not isinstance(policy, str):
            warnings.warn(
                "TargetConfig.digest() over a mutable MemorySpacePolicy "
                "object snapshots its current state; pass the policy "
                "mode string for a stable content key",
                DeprecationWarning,
                stacklevel=2,
            )
            policy = (
                f"{policy.mode}/banks={policy.num_banks}/"
                f"assigned={sorted(policy._assigned.items())!r}"
            )
        board = self.resolved_board()
        text = (
            f"board={_canonical_value(board)}|policy={policy!r}"
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


def _stage_failed(
    error: BaseException, error_cls: type, context: str
) -> NoReturn:
    """Re-raise the failure of a stage whose cache key was just evicted.

    A :class:`ReproError` and a raise that is not an ``Exception`` (a
    KeyboardInterrupt mid-stage) propagate unwrapped; anything else is
    wrapped as ``error_cls``.  Stages catch ``BaseException`` on purpose:
    an interrupted stage must evict too, or the session holds a poisoned
    artifact.
    """
    if isinstance(error, ReproError) or not isinstance(error, Exception):
        raise error
    raise wrap_error(error, error_cls, context=context) from error


def _policy_key(policy: "MemorySpacePolicy | str | None") -> tuple:
    if policy is None:
        return ("single", 16)
    if isinstance(policy, str):
        return (policy, 16)
    # A caller-supplied policy object carries mutable bank-assignment
    # state, so it must never alias a cache entry built from a fresh
    # policy of the same mode: key it by identity.
    return (policy.mode, policy.num_banks, id(policy))


def _policy_instance(
    policy: "MemorySpacePolicy | str | None",
) -> MemorySpacePolicy:
    """A fresh (or caller-supplied) policy for one host/device build.

    String modes always get a fresh instance so bank assignment restarts
    per build; a caller's :class:`MemorySpacePolicy` object is used as-is
    (its assignments are part of what the caller configured).
    """
    if policy is None:
        return MemorySpacePolicy()
    if isinstance(policy, str):
        return MemorySpacePolicy(mode=policy)
    return policy


# ---------------------------------------------------------------------------
# Declarative stage pipelines
# ---------------------------------------------------------------------------


def host_device_pipeline(
    policy: "MemorySpacePolicy | str | None" = None,
    *,
    instrumentation: Instrumentation | None = None,
    verify_each: bool = True,
) -> PassManager:
    """Stages 2-4 of Figure 2: data mapping, target regions, extraction."""
    pm = PassManager(verify_each=verify_each, instrumentation=instrumentation)
    pm.add(
        LowerOmpMappedDataPass(_policy_instance(policy)),
        LowerOmpTargetRegionPass(),
        ExtractDeviceModulePass(),
    )
    return pm


def device_pipeline(
    overrides: KernelOverrides | None = None,
    *,
    instrumentation: Instrumentation | None = None,
    verify_each: bool = True,
) -> PassManager:
    """Stage 5 (device side): omp->HLS lowering plus cleanup."""
    o = overrides or KernelOverrides()
    pm = PassManager(verify_each=verify_each, instrumentation=instrumentation)
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
# Stage artifacts
# ---------------------------------------------------------------------------


@dataclass
class FrontendArtifact:
    """Stage 1 output: the pristine core+omp module.  Never mutated —
    later stages clone it before running their pipelines."""

    module: builtin.ModuleOp
    program_info: ProgramInfo
    snapshots: list[PipelineStage] = field(default_factory=list)


@dataclass
class HostDeviceArtifact:
    """Stages 2-5 (host) output: split modules plus generated host C++.

    ``device_module`` is the *pre-HLS* device module (omp form); it is
    the pristine input every :class:`DeviceBuild` clones."""

    host_module: builtin.ModuleOp
    device_module: builtin.ModuleOp
    host_cpp: str
    policy_key: tuple
    snapshots: list[PipelineStage] = field(default_factory=list)


@dataclass
class DeviceBuild:
    """Stages 5 (device) + 6 output: HLS-form module and the bitstream."""

    overrides: KernelOverrides
    device_module: builtin.ModuleOp
    bitstream: Bitstream
    host: HostDeviceArtifact
    snapshots: list[PipelineStage] = field(default_factory=list)


# ---------------------------------------------------------------------------
# The assembled program view (the stable public artifact type)
# ---------------------------------------------------------------------------


@dataclass
class CompiledProgram:
    """Everything the flow produces for one Fortran source file.

    Programs assembled by one :class:`Session` share the frontend and
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
        flow_label: str = "fortran-openmp",
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
            self.host_module, self.bitstream, self.board, flow_label,
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

    Each stage is computed lazily, once, and cached keyed by its options;
    see the module docstring for the stage graph.
    """

    def __init__(
        self,
        source: str,
        *,
        target: TargetConfig | None = None,
        instrumentation: Instrumentation | None = None,
        verify_each: bool = True,
    ):
        self.source = source
        self.target = target or TargetConfig()
        self.board = self.target.resolved_board()
        self.instrumentation = instrumentation or Instrumentation()
        self.verify_each = verify_each
        self._frontend: FrontendArtifact | None = None
        self._host_device: dict[tuple, HostDeviceArtifact] = {}
        self._builds: dict[tuple, DeviceBuild] = {}

    # -- stage 1 ---------------------------------------------------------------------

    def frontend(self) -> FrontendArtifact:
        """Flang + [3]: parse/sema/lower to the core+omp module (once).

        A failed compile caches nothing: the next call retries from the
        source, so a session survives (for example) a transient
        instrumentation failure without holding a poisoned artifact.
        """
        if self._frontend is None:
            instr = self.instrumentation
            mark = len(instr.snapshots)
            try:
                result = compile_to_core(self.source, instrumentation=instr)
                self._frontend = FrontendArtifact(
                    module=result.module,
                    program_info=result.program_info,
                    snapshots=list(instr.snapshots[mark:]),
                )
            except BaseException as error:
                self._frontend = None
                _stage_failed(error, FrontendError, "session.frontend")
        return self._frontend

    # -- stages 2-5 (host) -------------------------------------------------------------

    def host_device(
        self, memory_space_policy: "MemorySpacePolicy | str | None" = None
    ) -> HostDeviceArtifact:
        """Device-dialect lowering, module split and host C++ generation,
        cached per memory-space policy."""
        policy = (
            memory_space_policy
            if memory_space_policy is not None
            else self.target.memory_space_policy
        )
        key = _policy_key(policy)
        if key not in self._host_device:
            try:
                frontend = self.frontend()
                instr = self.instrumentation
                module = frontend.module.clone()
                pm = host_device_pipeline(
                    policy, instrumentation=instr,
                    verify_each=self.verify_each,
                )
                pm.run(module)
                snapshots = []
                snap = instr.snapshot("device-dialect", module)
                if snap is not None:
                    snapshots.append(snap)
                host_module, device_module = split_host_device(module)
                instr.count("host_device_builds")
                self._host_device[key] = HostDeviceArtifact(
                    host_module=host_module,
                    device_module=device_module,
                    host_cpp=generate_host_code(host_module),
                    policy_key=key,
                    snapshots=snapshots,
                )
            except BaseException as error:
                self._host_device.pop(key, None)
                _stage_failed(error, LoweringError, f"host_device {key!r}")
        return self._host_device[key]

    # -- stages 5 (device) + 6 ---------------------------------------------------------

    def device_build(
        self,
        overrides: KernelOverrides | None = None,
        *,
        memory_space_policy: "MemorySpacePolicy | str | None" = None,
    ) -> DeviceBuild:
        """HLS lowering + simulated Vitis synthesis, cached per
        (policy, overrides) — the only work a DSE sweep repeats."""
        overrides = overrides or KernelOverrides()
        host = self.host_device(memory_space_policy)
        # Cache key: the stage-content digest, not the object — two
        # override instances with equal fields share one build, and the
        # same key addresses the artifact in the cross-process store.
        key = (host.policy_key, overrides.digest())
        if key not in self._builds:
            # Failure discipline: a raise anywhere mid-build must leave
            # the session reusable — the key is evicted (never a partial
            # artifact) and the frontend/host caches stay valid, so a
            # retry with the same overrides re-runs only this stage.
            try:
                instr = self.instrumentation
                device_module = host.device_module.clone()
                pm = device_pipeline(
                    overrides, instrumentation=instr,
                    verify_each=self.verify_each,
                )
                pm.run(device_module)
                snapshots = []
                snap = instr.snapshot("device-hls", device_module)
                if snap is not None:
                    snapshots.append(snap)
                bitstream = VitisCompiler(self.board).compile(
                    device_module,
                    compute_units=overrides.compute_units,
                    stream_tile_bytes=overrides.stream_tile_bytes,
                )
                for name, ir in (
                    ("llvm-ir", bitstream.llvm_ir),
                    ("amd-hls-llvm7", bitstream.amd_artifact.llvm_ir),
                ):
                    snap = instr.snapshot(name, ir)
                    if snap is not None:
                        snapshots.append(snap)
                instr.count("device_builds")
                self._builds[key] = DeviceBuild(
                    overrides=overrides,
                    device_module=device_module,
                    bitstream=bitstream,
                    host=host,
                    snapshots=snapshots,
                )
            except BaseException as error:
                self._builds.pop(key, None)
                _stage_failed(
                    error, DeviceBuildError,
                    f"device_build overrides={overrides!r}",
                )
        return self._builds[key]

    # -- assembly ----------------------------------------------------------------------

    def program(
        self,
        overrides: KernelOverrides | None = None,
        *,
        memory_space_policy: "MemorySpacePolicy | str | None" = None,
    ) -> CompiledProgram:
        """A :class:`CompiledProgram` view over the cached artifacts."""
        frontend = self.frontend()
        build = self.device_build(
            overrides, memory_space_policy=memory_space_policy
        )
        host = build.host
        return CompiledProgram(
            host_module=host.host_module,
            device_module=build.device_module,
            bitstream=build.bitstream,
            host_cpp=host.host_cpp,
            program_info=frontend.program_info,
            board=self.board,
            stages=(
                frontend.snapshots + host.snapshots + build.snapshots
            ),
        )

    # -- cache management --------------------------------------------------------------

    def release_build(
        self,
        overrides: KernelOverrides | None = None,
        *,
        memory_space_policy: "MemorySpacePolicy | str | None" = None,
    ) -> bool:
        """Drop one device build from the cache (the bitstream and the
        lowered module are the heavy artifacts; a sweep that has already
        extracted its numbers releases each point to keep memory flat).
        Returns whether a cached build was evicted."""
        overrides = overrides or KernelOverrides()
        policy = (
            memory_space_policy
            if memory_space_policy is not None
            else self.target.memory_space_policy
        )
        key = (_policy_key(policy), overrides.digest())
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

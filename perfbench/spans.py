"""Span tracing for the traced benchmark run.

The benchmark wraps each layer's public functions from here, never from
inside ``src/``: :func:`install` rebinds every wrapped name *where its
callers look it up* (a module-global imported by name, or a class
attribute), so the pipeline calls the wrapper without knowing it is
there.  Each wrapper records one span — name, start, end, parent span,
operation id — while the tracer is recording, and calls straight through
otherwise.

A layer's *self time* is its span minus the spans directly inside it.
The root span of an operation has no layer: its self time is the
operation's unattributed time, so for every operation the layer self
times plus ``unattributed_ms`` sum to its traced wall-clock.
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

#: wrapped entry points of the vectorizer (``vectorize.<entry>.*``)
VECTORIZE_ENTRIES = (
    "try_vectorized_loop",
    "try_vectorized_reduction",
    "try_vectorized_nest",
    "try_vectorized_loop_nest",
)

#: ``fir-to-core`` is reported as the frontend layer it belongs to;
#: every other registered pass gets a ``pass.<name>`` layer
FRONTEND_PASS = "fir-to-core"
PASSES = (
    "lower-omp-mapped-data",
    "lower-omp-target-region",
    "extract-device-module",
    "lower-omp-to-hls",
    "canonicalize",
    "cse",
    "dce",
    "lower-hls-to-func",
    "check-kernels",
)

#: every span name :func:`install` can record, in report order
LAYERS = (
    "frontend.parse",
    "frontend.sema",
    "frontend.lower",
    "frontend.fir_to_core",
    *(f"pass.{name}" for name in PASSES),
    "verifier",
    "fpga.schedule",
    "backend.vitis",
    "backend.llvm_ir",
    "backend.amd_hls",
    "backend.host_codegen",
    "session.frontend",
    "session.host_device",
    "session.device_build",
    "service.load",
    "service.build",
    "service.store",
    "executor.host",
    "kernel_runner",
    *(f"vectorize.{entry}" for entry in VECTORIZE_ENTRIES),
    "jit.compile",
)


class Tracer:
    """In-memory span recorder (spans are kept until the run ends)."""

    def __init__(self):
        # One span per index across these columns: name (None for a
        # root), start, end, parent index (-1 for a root), operation id.
        # Flat columns rather than a record object per span keep the
        # cycle collector's work flat however many spans a run records.
        self.names: list = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.ops: list = []
        self.counts: Counter = Counter()
        #: modules a counted call produced, as ``(counter, module)``;
        #: the benchmark sizes them after the operation, untimed
        self.outputs: list[tuple[str, object]] = []
        self._stack: list[int] = []
        self._op = None

    @contextmanager
    def root(self, op_id):
        """Record everything inside as one operation (or set-up) tree."""
        self._op = op_id
        index = self._open(None)
        try:
            yield
        finally:
            self._close(index)
            self._op = None

    def _open(self, name) -> int:
        stack = self._stack
        index = len(self.names)
        self.names.append(name)
        self.parents.append(stack[-1] if stack else -1)
        self.ops.append(self._op)
        self.ends.append(0.0)
        stack.append(index)
        self.starts.append(perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, *, handled=None):
        """``fn`` recording a ``name`` span per call; ``handled(result)``
        additionally counts the calls whose fast path took the work."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if handled is not None and handled(result):
                self.counts[f"{name}.handled"] += 1
            return result

        return wrapper

    def counter(self, name: str, fn, module_of):
        """``fn`` counting its calls and stashing ``module_of(args,
        result)`` for sizing after the operation (no span)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self._op is not None:
                self.counts[name] += 1
                self.outputs.append((name, module_of(args, result)))
            return result

        return wrapper

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> dict:
        """``{op id: {layer or None: self seconds}}``; ``None`` is the
        root's unattributed time.  Also returns each root's duration."""
        spans = list(
            zip(self.names, self.starts, self.ends, self.parents, self.ops)
        )
        child_time = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        per_op: dict = defaultdict(lambda: defaultdict(float))
        wall: dict = {}
        for index, (name, start, end, parent, op) in enumerate(spans):
            per_op[op][name] += (end - start) - child_time[index]
            if parent < 0:
                wall[op] = end - start
        return per_op, wall

    def calls(self) -> Counter:
        """Spans per layer, over operations only (set-up excluded)."""
        return Counter(
            name for name, op in zip(self.names, self.ops) if op != "setup"
        )


def install(tracer: Tracer) -> None:
    """Bind a wrapper around every traced layer entry point.

    Must run before the first JIT compile: the block-JIT captures the
    vectorizer entry points when it emits a loop closure.
    """
    import repro.backend.vitis as vitis
    import repro.frontend.driver as driver
    import repro.ir.compile as jit
    import repro.ir.pass_manager as pass_manager
    import repro.ir.vectorize as vectorize
    import repro.service.service as service
    import repro.session as session
    from repro.fpga.scheduler import HlsScheduler
    from repro.ir.pass_manager import get_pass_class, registered_passes
    from repro.runtime.executor import FpgaExecutor
    from repro.runtime.kernel_runner import KernelRunner
    from repro.service.store import ArtifactStore, StoredArtifact

    def rebind(owner, attr, name, **kwargs):
        setattr(owner, attr, tracer.span(name, getattr(owner, attr), **kwargs))

    # Frontend: frontend/driver.py imports its stages (and the verifier)
    # by name.
    rebind(driver, "parse_source", "frontend.parse")
    rebind(driver, "analyze", "frontend.sema")
    rebind(driver, "lower_program", "frontend.lower")
    verify = tracer.span("verifier", driver.verify)
    driver.verify = verify
    pass_manager.verify = verify
    for pass_name in registered_passes():
        cls = get_pass_class(pass_name)
        if pass_name not in (FRONTEND_PASS, *PASSES):
            raise RuntimeError(f"pass {pass_name!r} has no benchmark layer")
        layer = (
            "frontend.fir_to_core"
            if pass_name == FRONTEND_PASS
            else f"pass.{pass_name}"
        )
        if "apply" in vars(cls):
            rebind(cls, "apply", layer)

    # Device build and backends: vitis imports its emitters by name, the
    # session imports the host code generator by name.
    rebind(HlsScheduler, "schedule", "fpga.schedule")
    rebind(vitis.VitisCompiler, "compile", "backend.vitis")
    rebind(vitis, "emit_llvm_ir", "backend.llvm_ir")
    rebind(vitis, "prepare_for_vitis", "backend.amd_hls")
    rebind(session, "generate_host_code", "backend.host_codegen")

    # Session stages, plus counters for frontend compiles and device
    # builds; each keeps the module it produced for the ops_out counts.
    for stage in ("frontend", "host_device", "device_build"):
        rebind(session.Session, stage, f"session.{stage}")
    session.compile_to_core = tracer.counter(
        "session.frontend_compiles",
        session.compile_to_core,
        lambda args, result: result.module,
    )
    vitis.VitisCompiler.compile = tracer.counter(
        "session.device_builds",
        vitis.VitisCompiler.compile,
        lambda args, result: args[1],
    )

    # Compile service: the build runs through a module-global function.
    rebind(StoredArtifact, "load", "service.load")
    rebind(service, "build_stage_payload", "service.build")
    rebind(ArtifactStore, "get", "service.store")
    rebind(ArtifactStore, "put", "service.store")

    # Execution.
    rebind(FpgaExecutor, "run", "executor.host")
    rebind(KernelRunner, "run", "kernel_runner")
    for entry in VECTORIZE_ENTRIES:
        rebind(
            vectorize, entry, f"vectorize.{entry}",
            handled=lambda result: result is not None and result is not False,
        )
    rebind(jit, "compile_function", "jit.compile")

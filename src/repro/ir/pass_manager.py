"""Pass management: registry-backed declarative pipelines + instrumentation.

A :class:`ModulePass` transforms a module in place and *declares* its
tuning knobs as typed :class:`PassOption`\\ s.  The :class:`PassManager`
runs an ordered pipeline; pipelines have a textual form in the style of
MLIR's ``--pass-pipeline``::

    pm = PassManager.parse(
        "lower-omp-mapped-data{policy=round_robin},"
        "lower-omp-to-hls{reduction_copies=4},canonicalize,cse"
    )
    pm.spec()   # round-trips the string above

:class:`Instrumentation` is the unified observation hook consumed by the
staged :class:`~repro.session.Session` API, the Figure-2 benchmark, the
golden-IR tests and :mod:`repro.reporting`: named stage snapshots,
per-pass timing with optional before/after IR, and event counters.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field

from repro.ir.core import IRError, Operation, invalidate_analysis
from repro.ir.printer import print_op
from repro.ir.verifier import verify


class PipelineParseError(ValueError):
    """A textual pass-pipeline spec failed to parse or validate."""


# ---------------------------------------------------------------------------
# Typed pass options
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PassOption:
    """One declared knob of a pass: name, value type and default.  The
    name is also the pass's constructor keyword and the instance
    attribute that holds the value."""

    name: str
    type: type = str
    default: object = None
    help: str = ""

    def convert(self, value: object, pass_name: str) -> object:
        """Coerce a (possibly textual) value to the option's type."""
        if self.type is bool:
            if isinstance(value, bool):
                return value
            text = str(value).strip().lower()
            if text in ("true", "1", "yes"):
                return True
            if text in ("false", "0", "no"):
                return False
            raise PipelineParseError(
                f"pass '{pass_name}': option '{self.name}' expects a bool "
                f"(true/false), got {value!r}"
            )
        try:
            return self.type(value)
        except (TypeError, ValueError) as err:
            raise PipelineParseError(
                f"pass '{pass_name}': option '{self.name}' expects "
                f"{self.type.__name__}, got {value!r}"
            ) from err

    def render(self, value: object) -> str:
        if isinstance(value, bool):
            return "true" if value else "false"
        return str(value)


class ModulePass:
    """Base class for module-level transformations."""

    #: Pipeline name, e.g. ``"lower-omp-mapped-data"``.
    name: str = "unnamed-pass"

    #: Declared knobs, in rendering order (see :meth:`spec`).
    options: tuple[PassOption, ...] = ()

    def apply(self, module: Operation) -> None:
        raise NotImplementedError

    # -- declarative construction / printing -------------------------------------

    @classmethod
    def from_options(cls, **raw) -> "ModulePass":
        """Instantiate from textual/typed option values, validating names
        and coercing values per the declared :attr:`options`."""
        declared = {opt.name: opt for opt in cls.options}
        kwargs = {}
        for key, value in raw.items():
            if key not in declared:
                valid = ", ".join(sorted(declared)) or "<none>"
                raise PipelineParseError(
                    f"pass '{cls.name}' has no option {key!r}; "
                    f"valid options: {valid}"
                )
            kwargs[key] = declared[key].convert(value, cls.name)
        return cls(**kwargs)

    def option_values(self) -> dict[str, object]:
        """Current value of every declared option."""
        return {opt.name: getattr(self, opt.name) for opt in self.options}

    def spec(self) -> str:
        """Textual form, rendering only non-default option values."""
        values = self.option_values()
        parts = [
            f"{opt.name}={opt.render(values[opt.name])}"
            for opt in self.options
            if values[opt.name] != opt.default
        ]
        if parts:
            return f"{self.name}{{{','.join(parts)}}}"
        return self.name


# ---------------------------------------------------------------------------
# Instrumentation
# ---------------------------------------------------------------------------


@dataclass
class PipelineStage:
    """Named IR snapshot (Figure-2 introspection / golden-IR tests)."""

    name: str
    ir: str


@dataclass
class PassTrace:
    """Record of one pass execution (timing + optional IR snapshots)."""

    pass_name: str
    duration_s: float
    ir_before: str | None = None
    ir_after: str | None = None


@dataclass
class Instrumentation:
    """Unified observation hook threaded through the compilation stages.

    * ``counters`` — event counts (``frontend_compiles``,
      ``host_device_builds``, ``device_builds``, ...), the artifact-reuse
      evidence the DSE tests and benchmarks assert on;
    * ``snapshots`` — named whole-module IR prints per pipeline stage
      (only recorded when ``capture_ir`` is set);
    * ``pass_traces`` — per-pass wall-clock, with before/after IR when
      ``capture_ir`` is set.
    """

    capture_ir: bool = False
    counters: Counter = field(default_factory=Counter)
    snapshots: list[PipelineStage] = field(default_factory=list)
    pass_traces: list[PassTrace] = field(default_factory=list)

    def count(self, event: str, n: int = 1) -> None:
        self.counters[event] += n

    def snapshot(self, name: str, module_or_text) -> PipelineStage | None:
        """Record a named stage snapshot (no-op unless ``capture_ir``)."""
        if not self.capture_ir:
            return None
        text = (
            module_or_text
            if isinstance(module_or_text, str)
            else print_op(module_or_text)
        )
        stage = PipelineStage(name, text)
        self.snapshots.append(stage)
        return stage

    def record_pass(
        self,
        pass_name: str,
        duration_s: float,
        ir_before: str | None = None,
        ir_after: str | None = None,
    ) -> None:
        self.pass_traces.append(
            PassTrace(pass_name, duration_s, ir_before, ir_after)
        )

    def stage(self, name: str) -> str:
        """The IR of the named snapshot (latest wins); raises KeyError."""
        for snap in reversed(self.snapshots):
            if snap.name == name:
                return snap.ir
        raise KeyError(
            f"no snapshot {name!r}; have {[s.name for s in self.snapshots]}"
        )

    def stage_names(self) -> list[str]:
        return [s.name for s in self.snapshots]


# ---------------------------------------------------------------------------
# Pass manager
# ---------------------------------------------------------------------------


@dataclass
class PassManager:
    """Runs a pipeline of passes over a module."""

    passes: list[ModulePass] = field(default_factory=list)
    verify_each: bool = True
    instrumentation: Instrumentation | None = None

    def add(self, *passes: ModulePass) -> "PassManager":
        self.passes.extend(passes)
        return self

    def run(self, module: Operation) -> None:
        if self.verify_each:
            verify(module)
        instr = self.instrumentation
        prev_ir: str | None = None
        for p in self.passes:
            ir_before = None
            if instr is not None and instr.capture_ir:
                # each pass's "before" is the previous pass's "after"
                ir_before = prev_ir if prev_ir is not None else print_op(module)
            start = time.perf_counter()
            p.apply(module)
            duration = time.perf_counter() - start
            if self.verify_each:
                try:
                    verify(module)
                except IRError as err:
                    raise IRError(
                        f"verification failed after pass '{p.name}': {err}"
                    ) from err
            if instr is not None:
                ir_after = print_op(module) if instr.capture_ir else None
                instr.record_pass(p.name, duration, ir_before, ir_after)
                prev_ir = ir_after
        if self.passes:
            # the pipeline mutated the module in place: stale compiled
            # artifacts and loop analyses must not survive it
            invalidate_analysis(module)

    @property
    def pass_names(self) -> list[str]:
        return [p.name for p in self.passes]

    # -- declarative pipelines ----------------------------------------------------

    @classmethod
    def parse(
        cls,
        spec: str,
        *,
        verify_each: bool = True,
        instrumentation: Instrumentation | None = None,
    ) -> "PassManager":
        """Build a pipeline from its textual spec, e.g.
        ``"lower-omp-to-hls{reduction_copies=4,simdlen=2},canonicalize"``."""
        pm = cls(verify_each=verify_each, instrumentation=instrumentation)
        for entry in _split_toplevel(spec):
            pm.add(_parse_pass_entry(entry))
        return pm

    def spec(self) -> str:
        """The textual pipeline spec; ``PassManager.parse`` round-trips it."""
        return ",".join(p.spec() for p in self.passes)


def _split_toplevel(spec: str) -> list[str]:
    """Split on commas not enclosed in ``{...}``."""
    entries: list[str] = []
    depth = 0
    current: list[str] = []
    for ch in spec:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth < 0:
                raise PipelineParseError(
                    f"unbalanced '}}' in pipeline spec {spec!r}"
                )
        if ch == "," and depth == 0:
            entries.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise PipelineParseError(f"unbalanced '{{' in pipeline spec {spec!r}")
    entries.append("".join(current))
    return [e.strip() for e in entries if e.strip()]


def _parse_pass_entry(entry: str) -> ModulePass:
    name, brace, rest = entry.partition("{")
    name = name.strip()
    options: dict[str, str] = {}
    if brace:
        if not rest.endswith("}"):
            raise PipelineParseError(
                f"malformed pass entry {entry!r}: missing closing '}}'"
            )
        body = rest[:-1].strip()
        for item in filter(None, (s.strip() for s in body.split(","))):
            key, eq, value = item.partition("=")
            if not eq:
                raise PipelineParseError(
                    f"malformed option {item!r} in pass entry {entry!r}: "
                    "expected key=value"
                )
            options[key.strip()] = value.strip()
    cls = get_pass_class(name)
    return cls.from_options(**options)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


_PASS_REGISTRY: dict[str, type[ModulePass]] = {}


def register_pass(cls: type[ModulePass]) -> type[ModulePass]:
    """Register a pass class under its ``name`` for pipeline-by-name
    construction (decorator-friendly)."""
    _PASS_REGISTRY[cls.name] = cls
    return cls


def get_pass_class(name: str) -> type[ModulePass]:
    if name not in _PASS_REGISTRY:
        raise PipelineParseError(
            f"unknown pass {name!r}; registered: {sorted(_PASS_REGISTRY)}"
        )
    return _PASS_REGISTRY[name]


def registered_passes() -> list[str]:
    return sorted(_PASS_REGISTRY)

"""Diagnostics engine: source-located findings with stable rule codes.

A :class:`Diagnostic` is one finding of the kernel static analysis —
severity, a stable rule code (``RACE001``, ``DEP002``, ``TYPE002``...),
a human message, the kernel (function) it was found in and the Fortran
source line it points at (threaded from the lexer through lowering as
the ``loc`` IR attribute).  :class:`DiagnosticEngine` collects them and
is the single surface the checker pass, ``Session.diagnostics()`` and
the ``python -m repro.lint`` CLI share.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Severity levels in decreasing order of gravity.
SEVERITIES = ("error", "warning", "note")

#: Stable rule-code catalogue: code -> (default severity, summary).
#: ``tests/README.md`` documents each rule with its firing/silent
#: fixtures; adding a rule means adding a row here plus both fixtures.
RULES: dict[str, tuple[str, str]] = {
    "RACE001": (
        "error",
        "write-write race: parallel iterations store to the same cell "
        "without a matching reduction clause",
    ),
    "RACE002": (
        "error",
        "reduction combiner contradicts the declared reduction kind",
    ),
    "RACE003": (
        "warning",
        "indirect store with no static injectivity basis: will be "
        "runtime-proved or bail scalar",
    ),
    "DEP001": (
        "warning",
        "loop-carried read-write dependence constrains the pipeline "
        "initiation interval",
    ),
    "DEP002": (
        "warning",
        "loop-carried read-write dependence under simd: vectorized "
        "lanes would overlap the recurrence",
    ),
    "TYPE001": (
        "error",
        "operand/result element types disagree on an arith/math op",
    ),
    "TYPE002": (
        "error",
        "memref rank does not match the subscript count on load/store",
    ),
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding: severity, stable rule code, message and location."""

    severity: str
    code: str
    message: str
    kernel: str = ""
    line: int = 0

    def format(self) -> str:
        """One-line human rendering (the lint CLI's text format)."""
        where = f"line {self.line}" if self.line > 0 else "unknown line"
        kernel = f" in '{self.kernel}'" if self.kernel else ""
        return f"{self.severity}[{self.code}]{kernel} at {where}: {self.message}"

    def as_dict(self) -> dict:
        """JSON-ready rendering (the lint CLI's json format)."""
        return {
            "severity": self.severity,
            "code": self.code,
            "message": self.message,
            "kernel": self.kernel,
            "line": self.line,
        }


class DiagnosticEngine:
    """Collects diagnostics for one analyzed module."""

    def __init__(self):
        self.diagnostics: list[Diagnostic] = []

    def emit(
        self,
        code: str,
        message: str,
        *,
        kernel: str = "",
        line: int = 0,
        severity: str | None = None,
    ) -> Diagnostic:
        """Record a finding under a catalogued rule code.

        ``severity`` defaults to the rule's catalogued severity; passing
        one explicitly (e.g. promoting a warning under ``--werror`` is
        done at the CLI layer, not here) must still be a known level.
        """
        if code not in RULES:
            raise ValueError(f"unknown rule code {code!r}")
        level = severity or RULES[code][0]
        if level not in SEVERITIES:
            raise ValueError(f"unknown severity {level!r}")
        diag = Diagnostic(level, code, message, kernel=kernel, line=line)
        self.diagnostics.append(diag)
        return diag

    def extend(self, diagnostics: list[Diagnostic]) -> None:
        self.diagnostics.extend(diagnostics)

    # -- queries -----------------------------------------------------------------

    def count(self, severity: str) -> int:
        return sum(1 for d in self.diagnostics if d.severity == severity)

    @property
    def error_count(self) -> int:
        return self.count("error")

    @property
    def warning_count(self) -> int:
        return self.count("warning")

    @property
    def has_errors(self) -> bool:
        return any(d.severity == "error" for d in self.diagnostics)

    def by_code(self, code: str) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.code == code]

    def sorted(self) -> list[Diagnostic]:
        """Deterministic presentation order: kernel, line, code."""
        return sorted(
            self.diagnostics, key=lambda d: (d.kernel, d.line, d.code)
        )

    def clear(self) -> None:
        self.diagnostics.clear()

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __iter__(self):
        return iter(self.diagnostics)


@dataclass
class LintReport:
    """A lint run's outcome for one source: diagnostics + exit disposition."""

    source_name: str
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def errors(self) -> int:
        return sum(1 for d in self.diagnostics if d.severity == "error")

    @property
    def warnings(self) -> int:
        return sum(1 for d in self.diagnostics if d.severity == "warning")

    def failed(self, werror: bool = False) -> bool:
        if self.errors:
            return True
        return werror and self.warnings > 0

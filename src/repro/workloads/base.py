"""Workload gallery core: the :class:`Workload` protocol + registry.

Every benchmark the toolchain can compile end to end lives in this
package as one registered :class:`GalleryWorkload`: a Fortran+OpenMP
source, the entry point to launch, a size sweep, and an instance builder
that produces executor-ready NumPy arguments together with the expected
final contents of every output argument (computed by a NumPy reference
whose float32 operation order matches the simulated kernels bit for
bit).

The registry is the single list of workloads consumed by

* :mod:`repro.pipeline` users (compile + run any workload by name),
* the cross-tier conformance suite (``tests/property``),
* the DSE sweep (:func:`repro.dse.explore_workload`),
* :func:`repro.reporting.gallery_table`, and
* ``benchmarks/perf_smoke.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:
    from repro.pipeline import CompiledProgram
    from repro.runtime.executor import ExecutionResult
    from repro.session import Session


@dataclass
class WorkloadInstance:
    """One concrete problem instance, ready to hand to an executor.

    ``args`` are the entry point's arguments in declaration order;
    ``expected`` maps argument positions to the bit-exact expected final
    contents of that (mutated in place) argument.
    """

    args: tuple
    expected: dict[int, np.ndarray]

    def outputs(self) -> dict[int, np.ndarray]:
        """The output arguments, keyed like :attr:`expected`."""
        return {i: self.args[i] for i in self.expected}


@dataclass(frozen=True)
class GalleryWorkload:
    """A registered workload: source + entry + sizes + instance builder."""

    name: str
    #: one-line description for gallery tables / reports
    description: str
    #: Fortran+OpenMP source text of the whole program
    source: str
    #: entry-point subroutine launched by :meth:`run`
    entry: str
    #: the size sweep reported in benchmarks (problem-specific meaning)
    sizes: tuple[int, ...]
    #: small size for smoke/property tests (fast on the scalar tier, but
    #: large enough to enter the vectorized tier where applicable)
    smoke_size: int
    #: builds (args, expected) for a given size/seed
    make_instance: Callable[[int, int], WorkloadInstance] = field(repr=False)
    #: loop shape exercised, for reporting ("1-D", "2-D collapse", ...)
    loop_shape: str = "1-D"

    def instance(self, n: int, seed: int = 0) -> WorkloadInstance:
        return self.make_instance(n, seed)

    # -- conveniences ---------------------------------------------------------------

    def compile(self, **kwargs) -> "CompiledProgram":
        from repro.pipeline import compile_fortran

        return compile_fortran(self.source, **kwargs)

    def session(self, **kwargs) -> "Session":
        """A staged :class:`~repro.session.Session` over this workload's
        source — the entry point for DSE sweeps with artifact reuse."""
        from repro.session import Session

        return Session(self.source, **kwargs)

    def run(
        self,
        program: "CompiledProgram",
        n: int | None = None,
        seed: int = 0,
        *,
        compiled: bool = True,
        vectorize: bool = True,
    ) -> tuple["ExecutionResult", WorkloadInstance]:
        """Run one instance on a fresh executor; returns (result, instance)."""
        instance = self.instance(n if n is not None else self.smoke_size, seed)
        result = program.executor(
            compiled=compiled, vectorize=vectorize
        ).run(self.entry, *instance.args)
        return result, instance

    def check(self, instance: WorkloadInstance) -> None:
        """Assert every output matches its reference bit for bit."""
        for pos, expected in instance.expected.items():
            actual = np.asarray(instance.args[pos])
            if actual.tobytes() != np.asarray(expected).tobytes():
                delta = np.max(
                    np.abs(actual.astype(np.float64) - expected.astype(np.float64))
                )
                raise AssertionError(
                    f"{self.name}: output arg {pos} differs from the NumPy "
                    f"reference (max abs delta {delta:.3e})"
                )

    def evaluator(
        self, n: int | None = None, seed: int = 0
    ) -> Callable[["CompiledProgram"], "ExecutionResult"]:
        """A DSE evaluation callback running one representative instance."""

        def evaluate(program: "CompiledProgram") -> "ExecutionResult":
            result, _ = self.run(program, n, seed)
            return result

        return evaluate


# -- registry ---------------------------------------------------------------------

_REGISTRY: dict[str, GalleryWorkload] = {}


def register(workload: GalleryWorkload) -> GalleryWorkload:
    """Add a workload to the gallery (module-import time)."""
    if workload.name in _REGISTRY:
        raise ValueError(f"workload {workload.name!r} already registered")
    _REGISTRY[workload.name] = workload
    return workload


def get_workload(name: str) -> GalleryWorkload:
    if name not in _REGISTRY:
        raise KeyError(
            f"no workload {name!r}; have {sorted(_REGISTRY)}"
        )
    return _REGISTRY[name]


def workload_names() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def all_workloads() -> tuple[GalleryWorkload, ...]:
    """Every registered workload, in registration order."""
    return tuple(_REGISTRY.values())


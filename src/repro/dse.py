"""Design-space exploration over OpenMP directive parameters.

The paper (§4) notes that "design space exploration could be added in
the future to automatically find the best combination of directives and
their parameters".  This module implements that extension on top of the
staged :class:`~repro.session.Session` API: a sweep builds its own
session over the source for ``board=`` (the sweep's one target
setting), which compiles the frontend and the host side exactly once;
the sweep re-runs only the device build with each
:class:`~repro.session.KernelOverrides` point (``simdlen`` x reduction
copies x compute units), evaluates the modeled runtime on a
user-supplied workload, and reports the Pareto-best choice under a
resource budget.

.. code-block:: python

    from repro.dse import explore_simdlen

    result = explore_simdlen(SAXPY_SOURCE, run_workload, factors=(1, 2, 4, 8, 10))
    print(result.best.simdlen, result.best.device_time_s)
    print(result.session.counters["frontend_compiles"])   # == 1

Two orthogonal extensions ride on the compile service
(:mod:`repro.service`):

* ``workers=N`` (or an explicit ``service=``) builds the sweep's points
  **in parallel** across the service's process pool — each point's
  device build runs in a worker, the modeled evaluation runs in the
  parent, and the result table is assembled in *plan order* (the
  cartesian order of the input sequences), so serial and parallel sweeps
  produce identical tables regardless of worker completion order;
* ``result_store=DseResultStore(path)`` persists every evaluated point
  to disk as it completes, under the digest of the point's
  :class:`~repro.service.CompileRequest` (the address the compile
  service stores its program at), so a killed sweep restarted with the
  same store re-evaluates only the missing points and still produces a
  bit-identical table.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from repro.fpga.board import U280Board
from repro.reliability.errors import DataIntegrityError
from repro.runtime.executor import ExecutionResult
from repro.service import CompileRequest, CompileService
from repro.session import (
    CompiledProgram,
    KernelOverrides,
    Session,
    TargetConfig,
)


@dataclass
class DsePoint:
    """One evaluated configuration.

    ``program`` is only retained when the sweep runs with
    ``keep_programs=True`` — a full :class:`CompiledProgram` (bitstream +
    modules) per point makes gallery-wide sweeps hold every artifact
    alive, so the default keeps only the modeled numbers.
    """

    simdlen: int
    reduction_copies: int
    compute_units: int
    device_time_s: float
    lut_pct: float
    dsp_pct: float
    achieved_iis: tuple[int, ...]
    program: CompiledProgram | None = None

    @property
    def device_time_ms(self) -> float:
        return self.device_time_s * 1e3


@dataclass
class DseResult:
    """Sweep outcome: all points plus the runtime-best within budget."""

    points: list[DsePoint] = field(default_factory=list)
    best: DsePoint | None = None
    #: the session the sweep ran on — exposes the shared artifacts and
    #: the instrumentation counters (``frontend_compiles`` stays at 1)
    session: Session | None = None
    #: the resource budgets the feasibility filter enforced
    max_lut_pct: float = 70.0
    max_dsp_pct: float = 70.0

    def table(self) -> str:
        from repro.reporting import format_table

        rows = [
            (
                p.simdlen,
                p.reduction_copies,
                p.compute_units,
                f"{p.device_time_ms:.3f}",
                f"{p.lut_pct:.2f}",
                f"{p.dsp_pct:.2f}",
                ",".join(str(ii) for ii in p.achieved_iis),
                "*" if p is self.best else "",
            )
            for p in self.points
        ]
        return format_table(
            "Design-space exploration "
            f"(budget: LUT <= {self.max_lut_pct:g} %, "
            f"DSP <= {self.max_dsp_pct:g} %)",
            ["simdlen", "red.copies", "CUs", "time (ms)", "LUT %", "DSP %",
             "IIs", "best"],
            rows,
        )


#: the persisted per-point record schema (see :class:`DseResultStore`)
_RECORD_FIELDS = (
    "simdlen",
    "reduction_copies",
    "compute_units",
    "device_time_s",
    "lut_pct",
    "dsp_pct",
    "achieved_iis",
)


class DseResultStore:
    """Resumable on-disk store of evaluated DSE points.

    Each completed point is persisted (atomically) as
    ``<root>/<digest>.json`` keyed by the point's
    :attr:`~repro.service.CompileRequest.digest` — the same content
    address the compile service uses — the moment its evaluation
    finishes.  A sweep restarted with the same store loads those records
    instead of re-evaluating, so an interrupted sweep completes
    bit-identically to an uninterrupted one.

    The digest covers (source, target, overrides) but not the
    ``evaluate`` callback: use one store directory per (workload,
    evaluator) sweep.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: points served from disk during the last sweep (resume probe)
        self.loads = 0
        #: points persisted during the last sweep
        self.saves = 0

    def _path(self, digest: str) -> Path:
        return self.root / f"{digest}.json"

    def get(self, digest: str) -> dict | None:
        """The persisted record, or ``None``.  A record that cannot be
        parsed or is missing fields raises
        :class:`~repro.reliability.errors.DataIntegrityError` — a
        truncated or hand-edited file must never become a silently wrong
        sweep row."""
        path = self._path(digest)
        if not path.exists():
            return None
        try:
            record = json.loads(path.read_text())
        except (OSError, ValueError) as error:
            raise DataIntegrityError(
                f"DSE result store: unreadable record {path.name}",
                context=str(path),
            ) from error
        if not all(key in record for key in _RECORD_FIELDS):
            raise DataIntegrityError(
                f"DSE result store: record {path.name} is missing fields "
                f"(have {sorted(record)})",
                context=str(path),
            )
        self.loads += 1
        return record

    def put(self, digest: str, record: dict) -> None:
        path = self._path(digest)
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(json.dumps(record, indent=1) + "\n")
        os.replace(tmp, path)
        self.saves += 1

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))

    def __contains__(self, digest: str) -> bool:
        return self._path(digest).exists()


def _point_record(
    program: CompiledProgram,
    run: ExecutionResult,
    overrides: KernelOverrides,
) -> dict:
    utilization = program.bitstream.utilization()
    return {
        "simdlen": overrides.simdlen,
        "reduction_copies": overrides.reduction_copies,
        "compute_units": overrides.compute_units,
        "device_time_s": run.device_time_s,
        "lut_pct": utilization.lut,
        "dsp_pct": utilization.dsp,
        "achieved_iis": [
            sched.achieved_ii
            for kernel in program.bitstream.kernels.values()
            for sched in kernel.loops.values()
        ],
    }


def _point_from_record(
    record: dict, program: CompiledProgram | None = None
) -> DsePoint:
    return DsePoint(
        simdlen=int(record["simdlen"]),
        reduction_copies=int(record["reduction_copies"]),
        compute_units=int(record.get("compute_units", 1)),
        device_time_s=float(record["device_time_s"]),
        lut_pct=float(record["lut_pct"]),
        dsp_pct=float(record["dsp_pct"]),
        achieved_iis=tuple(int(ii) for ii in record["achieved_iis"]),
        program=program,
    )


def explore(
    source: str,
    evaluate: Callable[[CompiledProgram], ExecutionResult],
    *,
    simdlen_factors: Sequence[int] = (1, 2, 4, 8, 10),
    reduction_copies: Sequence[int] = (8,),
    compute_units: Sequence[int] = (1,),
    max_lut_pct: float = 70.0,
    max_dsp_pct: float = 70.0,
    board: U280Board | None = None,
    keep_programs: bool = False,
    workers: int = 0,
    service=None,
    result_store: DseResultStore | None = None,
) -> DseResult:
    """Sweep directive parameters and pick the fastest feasible point.

    ``evaluate`` runs a representative workload on a compiled program and
    returns its :class:`ExecutionResult`; the sweep minimizes
    ``device_time_s`` subject to *both* resource budgets (LUT and DSP
    utilization).

    Serially (the default) all points share one :class:`Session`: the
    frontend and host build run once, each point costs one device build.
    With ``workers=N`` (or an explicit
    :class:`~repro.service.CompileService` via ``service=``) the device
    builds of all pending points run in parallel across the service's
    process pool; the modeled evaluation still runs in the parent (so
    any callable works, closures included) and the table is assembled in
    plan order — identical to the serial table.

    ``result_store`` makes the sweep resumable: completed points are
    read back from disk instead of re-evaluated (their ``program`` slot
    is ``None`` even with ``keep_programs=True``).
    """
    parallel = workers > 0 or service is not None

    # The plan is the cartesian order of the input sequences; the result
    # table is always assembled in this order, so worker completion
    # order can never reorder rows.  An over-budget compute-unit count
    # is not a sweep point — the device build raises a typed
    # DeviceBuildError, which propagates (pick CU counts that fit).
    plan = [
        (copies, factor, units)
        for copies in reduction_copies
        for factor in simdlen_factors
        for units in compute_units
    ]
    target = TargetConfig(board=board)

    # Resume: load every already-evaluated point from the result store.
    records: dict[tuple[int, int, int], dict] = {}
    digests: dict[tuple[int, int, int], str] = {}
    for copies, factor, units in plan:
        overrides = KernelOverrides(
            simdlen=factor, reduction_copies=copies, compute_units=units
        )
        if result_store is not None:
            digest = CompileRequest(source, target, overrides).digest
            digests[(copies, factor, units)] = digest
            record = result_store.get(digest)
            if record is not None:
                records[(copies, factor, units)] = record
    pending = [key for key in plan if key not in records]

    programs: dict[tuple[int, int, int], CompiledProgram] = {}
    session = None
    if parallel and pending:
        _run_points_parallel(
            source, target, pending, programs,
            workers=workers, service=service,
        )
    elif pending:
        session = Session(source, target=target)

    result = DseResult(
        session=session, max_lut_pct=max_lut_pct, max_dsp_pct=max_dsp_pct
    )
    for copies, factor, units in plan:
        overrides = KernelOverrides(
            simdlen=factor, reduction_copies=copies, compute_units=units
        )
        record = records.get((copies, factor, units))
        if record is not None:
            result.points.append(_point_from_record(record))
            continue
        if parallel:
            program = programs[(copies, factor, units)]
        else:
            program = session.program(overrides)
        run = evaluate(program)
        record = _point_record(program, run, overrides)
        if result_store is not None:
            result_store.put(digests[(copies, factor, units)], record)
        result.points.append(
            _point_from_record(
                record, program if keep_programs else None
            )
        )
        if not parallel and not keep_programs:
            # evict the heavy device build (bitstream + lowered
            # module) now that its numbers are extracted, so gallery
            # sweeps hold at most one build at a time
            session.release_build(overrides)
    feasible = [
        p
        for p in result.points
        if p.lut_pct <= max_lut_pct and p.dsp_pct <= max_dsp_pct
    ]
    if feasible:
        result.best = min(feasible, key=lambda p: p.device_time_s)
    return result


def _run_points_parallel(
    source: str,
    target: TargetConfig,
    pending: Sequence[tuple[int, int, int]],
    programs: dict,
    *,
    workers: int,
    service,
) -> None:
    """Build every pending point's program through the compile service
    (in parallel across its pool) into ``programs``."""
    owned = None
    if service is None:
        owned = service = CompileService(
            max_workers=workers,
            queue_depth=max(len(pending), 1),
        )
    try:
        futures = {}
        for copies, factor, units in pending:
            overrides = KernelOverrides(
                simdlen=factor, reduction_copies=copies, compute_units=units
            )
            futures[(copies, factor, units)] = service.submit(
                CompileRequest(
                    source=source, target=target, overrides=overrides
                )
            )
        for key, future in futures.items():
            programs[key] = future.result().artifact
    finally:
        if owned is not None:
            owned.close()


def explore_simdlen(
    source: str,
    evaluate: Callable[[CompiledProgram], ExecutionResult],
    factors: Sequence[int] = (1, 2, 4, 8, 10),
    **kwargs,
) -> DseResult:
    """Convenience wrapper sweeping only the unroll factor."""
    return explore(source, evaluate, simdlen_factors=factors, **kwargs)


def explore_workload(
    workload,
    *,
    n: int | None = None,
    seed: int = 0,
    simdlen_factors: Sequence[int] = (1, 2, 4, 8),
    reduction_copies: Sequence[int] = (8,),
    compute_units: Sequence[int] = (1,),
    **kwargs,
) -> DseResult:
    """Sweep directive parameters for a gallery workload (by name or
    :class:`~repro.workloads.base.GalleryWorkload`), evaluating each
    configuration on one representative instance (``smoke_size`` unless
    ``n`` is given).  The frontend compiles exactly once per workload per
    sweep (``result.session.counters["frontend_compiles"] == 1``)."""
    from repro.workloads import get_workload

    if isinstance(workload, str):
        workload = get_workload(workload)
    return explore(
        workload.source,
        workload.evaluator(n, seed),
        simdlen_factors=simdlen_factors,
        reduction_copies=reduction_copies,
        compute_units=compute_units,
        **kwargs,
    )


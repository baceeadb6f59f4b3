"""Reporting helpers: paper-style tables and the Table 7 LoC census.

The benchmarks print every reproduced table in the paper's row/column
layout next to the published values, so EXPERIMENTS.md can be regenerated
mechanically.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

#: Repository source root (src/repro).
_SRC_ROOT = Path(__file__).resolve().parent

#: Paper Table 7: component -> (published LoC, our module globs).
TABLE7_COMPONENTS: dict[str, tuple[int, tuple[str, ...]]] = {
    "OpenMP to HLS dialect (this work)": (
        2363,
        (
            "dialects/device.py",
            "transforms/lower_omp_mapped_data.py",
            "transforms/lower_omp_target_region.py",
            "transforms/extract_device_module.py",
            "transforms/lower_omp_to_hls.py",
            "transforms/loop_analysis.py",
        ),
    ),
    "HLS dialect and lowering from [20]": (
        2382,
        (
            "dialects/hls.py",
            "transforms/lower_hls_to_func.py",
            "backend/vitis.py",
        ),
    ),
    "Integrating LLVM and AMD HLS backend [19]": (
        1654,
        (
            "backend/llvm_ir.py",
            "backend/amd_hls.py",
        ),
    ),
    "Lowering from HLFIR & FIR to core dialects [3]": (
        5956,
        (
            "frontend/lexer.py",
            "frontend/ast_nodes.py",
            "frontend/parser.py",
            "frontend/directives.py",
            "frontend/sema.py",
            "frontend/lowering.py",
            "frontend/fir_to_core.py",
            "frontend/driver.py",
        ),
    ),
}


def count_loc(path: Path) -> int:
    """Physical non-blank lines of code in a file."""
    return sum(
        1 for line in path.read_text().splitlines() if line.strip()
    )


@dataclass
class LocRow:
    component: str
    paper_loc: int
    our_loc: int
    files: tuple[str, ...]


def table7_loc() -> list[LocRow]:
    """Lines-of-code census mapped onto the paper's Table 7 components."""
    rows = []
    for component, (paper_loc, files) in TABLE7_COMPONENTS.items():
        total = 0
        for rel in files:
            path = _SRC_ROOT / rel
            if not path.exists():
                raise FileNotFoundError(f"Table 7 census: missing {path}")
            total += count_loc(path)
        rows.append(LocRow(component, paper_loc, total, files))
    return rows


def format_table(
    title: str,
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
) -> str:
    """Monospace table with a title rule (used by every benchmark)."""
    rows = [tuple(str(c) for c in row) for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [title, "=" * len(title)]
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("-+-".join("-" * w for w in widths))
    for row in rows:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def relative_difference(ours: float, reference: float) -> float:
    """Signed relative difference in percent (reference vs ours)."""
    return (reference / ours - 1.0) * 100.0


def pass_timing_table(instrumentation) -> str:
    """Per-pass wall-clock of an instrumented compilation, aggregated by
    pass name (a :class:`~repro.ir.pass_manager.Instrumentation` consumer
    — the Figure-2 benchmark prints this next to the stage trace)."""
    totals: dict[str, tuple[int, float]] = {}
    for trace in instrumentation.pass_traces:
        runs, seconds = totals.get(trace.pass_name, (0, 0.0))
        totals[trace.pass_name] = (runs + 1, seconds + trace.duration_s)
    rows = [
        (name, runs, f"{seconds * 1e3:.3f}")
        for name, (runs, seconds) in sorted(
            totals.items(), key=lambda kv: -kv[1][1]
        )
    ]
    return format_table(
        "Pass timings", ["pass", "runs", "total (ms)"], rows
    )


def service_stats_table(stats) -> str:
    """Aggregate :class:`~repro.service.service.ServiceStats` counters
    as a table (requests, tier hits, coalesced, builds, rejections)."""
    rows = sorted(stats.as_dict().items())
    return format_table("Compile service", ["counter", "count"], rows)


def service_request_table(responses) -> str:
    """Per-request :class:`~repro.service.service.ServiceMetrics` rows
    for a batch of :class:`ServiceResponse` objects — the coalesced
    burst evidence in human-readable form."""
    rows = [
        (
            r.metrics.digest[:12],
            r.metrics.outcome,
            f"{r.metrics.queue_wait_s * 1e3:.3f}",
            f"{r.metrics.build_s * 1e3:.3f}",
            f"{r.metrics.total_s * 1e3:.3f}",
        )
        for r in responses
    ]
    return format_table(
        "Service requests",
        ["digest", "outcome", "queue (ms)", "build (ms)", "total (ms)"],
        rows,
    )


def gallery_table() -> str:
    """The workload gallery as a paper-style table (name, loop shape,
    entry point, size sweep) — regenerated from the registry so reports
    can never drift from the code."""
    from repro.workloads import all_workloads

    rows = [
        (
            w.name,
            w.loop_shape,
            w.entry,
            ", ".join(str(s) for s in w.sizes),
            w.description,
        )
        for w in all_workloads()
    ]
    return format_table(
        "Workload gallery",
        ["workload", "loop shape", "entry", "sizes", "description"],
        rows,
    )

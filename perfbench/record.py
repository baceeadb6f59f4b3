#!/usr/bin/env python3
"""Regenerate ``expected.json``, the oracle values the benchmark checks.

Run from the repository root:

    python3 perfbench/record.py

It compiles every program the workloads use, runs each once at seed 0
with its outputs checked against the NumPy reference, and records

* ``compile``: each gallery program's bitstream report (per-loop II and
  resource utilisation — the modelled output of a compile);
* ``run``: the modelled ``[interpreter_steps, device_time_ms,
  kernel_cycles]`` of every run-kernels / run-sgesl program;
* ``dse``: the same triple for every dse-sweep design point.

Modelled values are independent of the input seed.  Where a size is also
in ``BENCH_pr10.json`` the recorded values must equal it; this script
refuses to write a file that disagrees.  Re-record only when a change
moves the model on purpose.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from ops import (  # noqa: E402
    EXPECTED_PATH,
    DseSweep,
    RunKernels,
    dse_outputs,
    fresh_args,
    modelled,
    output_errors,
)
from repro.session import KernelOverrides, Session  # noqa: E402
from repro.workloads import all_workloads, get_workload  # noqa: E402


def run_once(workload, program, instance, outputs=None) -> list:
    args = fresh_args(instance)
    result = program.executor().run(workload.entry, *args)
    if error := output_errors(outputs or instance.expected, args):
        raise SystemExit(f"{workload.name}: {error}")
    return modelled(result)


def main() -> None:
    compile_reports = {
        w.name: Session(w.source).program().bitstream.report()
        for w in all_workloads()
    }
    runs = {}
    for name, n in {**RunKernels.SIZES, "sgesl": 512}.items():
        workload = get_workload(name)
        runs[f"{name}:n={n}"] = run_once(
            workload, Session(workload.source).program(),
            workload.instance(n, 0),
        )
    dse = {}
    sessions = {}
    for point in DseSweep.points():
        name, simdlen, copies, units = point
        workload = get_workload(name)
        session = sessions.setdefault(name, Session(workload.source))
        overrides = KernelOverrides(
            simdlen=simdlen, reduction_copies=copies, compute_units=units
        )
        instance = workload.instance(workload.smoke_size, 0)
        dse[DseSweep.point_key(point)] = run_once(
            workload, session.program(overrides), instance,
            dse_outputs(name, instance, copies),
        )
        session.release_build(overrides)

    baseline = ROOT / "BENCH_pr10.json"
    if baseline.exists():
        recorded = json.loads(baseline.read_text())
        for bench in recorded["benches"]:
            have = runs.get(bench["name"])
            want = [
                bench.get("interpreter_steps"),
                bench.get("device_time_ms"),
                bench.get("kernel_cycles"),
            ]
            if have is not None and have != want:
                raise SystemExit(
                    f"{bench['name']}: {have} disagrees with {baseline.name} "
                    f"{want}"
                )
        for key, section in recorded.items():
            for bench in section if key.endswith("_tiers") else ():
                have = runs.get(bench["name"])
                steps = bench.get("interpreter_steps")
                if have is not None and steps is not None and have[0] != steps:
                    raise SystemExit(
                        f"{key}:{bench['name']}: steps {have[0]} disagree "
                        f"with {baseline.name} {steps}"
                    )
    EXPECTED_PATH.write_text(
        json.dumps(
            {"compile": compile_reports, "run": runs, "dse": dse}, indent=1
        )
        + "\n"
    )
    print(f"wrote {EXPECTED_PATH} ({len(runs)} runs, {len(dse)} dse points)")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Layer-by-layer benchmark of the Fortran + OpenMP -> simulated U280 flow.

Run from the repository root:

    python3 perfbench/run.py --workload run-sgesl --seed 1 --seconds 27 --trace 0

One process runs one workload as a closed loop with one client: the next
operation starts when the previous one has returned and been checked.
Every operation's result is checked against its oracle (NumPy reference
outputs bit for bit, recorded modelled values exactly — see
``record.py``) outside the timed region.

``--trace 0`` measures the end-to-end metrics with no tracing installed:
set-up time, operation latency (each kind's 10th percentile, weighted
by the kind's count) and peak RSS.  The line before the result adds
the plain median, p90 (the highest percentile with at least ten
samples beyond it — hence at least 100 operations per run) and
throughput, which are not metrics.  ``--trace 1`` runs a fixed,
seed-given sequence of operations twice — untraced, then with every
layer wrapped by ``spans.install`` — and reports per-layer self times
and exact counts over the traced pass.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value + unit).  The line before it
holds the sample count of every metric and a per-kind breakdown.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import spans  # noqa: E402
from ops import WORKLOADS, load_expected  # noqa: E402

#: p90 needs ten samples beyond it
MIN_OPS = 100
#: set-ups per run; setup_s reports their median
SETUP_REPEATS = 5


def percentile(values: list[float], share: float) -> float:
    ranked = sorted(values)
    return ranked[math.ceil(share * len(ranked)) - 1]


class Pass:
    """One closed-loop pass over a workload's operation stream."""

    def __init__(self, workload, tracer=None, on_op=None):
        self.workload = workload
        self.tracer = tracer
        self.on_op = on_op
        self.latencies: list[float] = []
        self.kinds: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0

    def run(self, *, deadline=None, count=None) -> "Pass":
        workload = self.workload
        gc.collect()
        for op in workload.stream():
            if count is not None and self.attempted >= count:
                break
            if (
                deadline is not None
                and self.attempted >= MIN_OPS
                and time.perf_counter() >= deadline
            ):
                break
            args = workload.prepare(op)
            self.attempted += 1
            try:
                if self.tracer is None:
                    start = time.perf_counter()
                    result = workload.run(op, args)
                    elapsed = time.perf_counter() - start
                else:
                    with self.tracer.root(self.attempted):
                        result = workload.run(op, args)
                    elapsed = None
                error = workload.check(op, args, result)
            except Exception:  # noqa: BLE001 - count it, keep measuring
                traceback.print_exc()
                self.failed += 1
                continue
            if error is not None:
                print(f"{workload.name}: {op}: {error}", file=sys.stderr)
                self.failed += 1
                continue
            if elapsed is not None:
                self.latencies.append(elapsed)
                self.kinds[workload.kind(op, result)].append(elapsed)
            if self.on_op is not None:
                self.on_op(op, result)
        return self


def end_to_end(cls, seed: int, seconds: float, expected: dict):
    imports_s = time.perf_counter() - START
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload = cls(seed, expected)
        setups.append(time.perf_counter() - start)
        if len(setups) < SETUP_REPEATS:
            # free this set-up before the next, so peak RSS is one
            # set-up plus the measured pass
            workload.close()
            del workload
            gc.collect()
    measured = Pass(workload).run(deadline=time.perf_counter() + seconds)
    workload.close()
    lat = measured.latencies
    # The shared host slows every operation by up to half for minutes at
    # a time, which moves any latency percentile from the median up by
    # more than a bound can allow.  It cannot make an operation faster
    # than its work, so each kind's 10th percentile moves far less;
    # weighted by the kind's count, they give the time per operation of
    # the mix.
    kinds = measured.kinds
    kind_p10 = sum(len(v) * percentile(v, 0.1) for v in kinds.values())
    metrics = {
        "setup_s": (imports_s + statistics.median(setups), "s"),
        "op_ms_kind_p10": (kind_p10 / len(lat) * 1e3, "ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB",
        ),
    }
    samples = {name: len(lat) for name in metrics}
    samples["setup_s"] = SETUP_REPEATS
    samples["peak_rss_mb"] = 1
    detail = {
        # reported, not metrics: the host's slow phases move them by
        # more than a bound can allow (README.md, "Run-to-run spread")
        "op_ms_p50": statistics.median(lat) * 1e3,
        "op_ms_p90": percentile(lat, 0.9) * 1e3,
        "ops_per_s": len(lat) / sum(lat),
        "imports_s": imports_s,
        "setup_runs_s": setups,
        "kinds": {
            kind: {"n": len(v), "p50_ms": statistics.median(v) * 1e3}
            for kind, v in sorted(measured.kinds.items())
        },
    }
    return measured.attempted, measured.failed, metrics, samples, detail


def whole_space_loops(module) -> int:
    from repro.ir.vectorize import loop_vector_mode

    return sum(
        1
        for op in module.walk()
        if op.name == "scf.for" and loop_vector_mode(op)[0] is not None
    )


#: the module a counted call produced -> the count its size adds to
OUTPUT_COUNTS = {
    "session.frontend_compiles": "frontend.ops_out",
    "session.device_builds": "device.ops_out",
}


def traced(cls, seed: int, expected: dict):
    count = cls.trace_ops
    untraced_workload = cls(seed, expected)
    untraced = Pass(untraced_workload).run(count=count)
    untraced_workload.close()
    del untraced_workload

    tracer = spans.Tracer()
    spans.install(tracer)
    with tracer.root("setup"):
        workload = cls(seed, expected)
    tracer.counts.clear()
    tracer.outputs.clear()

    totals = defaultdict(int)
    outcomes: list[tuple[str, int]] = []

    def on_op(op, result):
        for counter, module in tracer.outputs:
            totals[OUTPUT_COUNTS[counter]] += sum(1 for _ in module.walk())
        tracer.outputs.clear()
        totals["vectorize.whole_space_loops"] += whole_space_loops(
            workload.device_module(op, result)
        )
        execution = workload.execution(result)
        if execution is not None:
            totals["interpreter.steps"] += execution.interpreter_steps
            totals["executor.launches"] += execution.launches
            totals["executor.transfers"] += execution.transfers
            totals["executor.bytes_moved"] += (
                execution.bytes_h2d + execution.bytes_d2h
            )
        response = workload.response(result)
        if response is not None:
            outcomes.append(
                (response.metrics.outcome, response.metadata["payload_bytes"])
            )

    measured = Pass(workload, tracer=tracer, on_op=on_op).run(count=count)
    workload.close()

    per_op, wall = tracer.self_times()
    setup_self = per_op.pop("setup")
    wall.pop("setup")
    ops = len(wall)
    traced_s = sum(wall.values())
    untraced_s = sum(untraced.latencies)
    # the identity the per-layer numbers rest on: per operation, layer
    # self times plus unattributed time add up to the traced wall-clock
    worst = max(abs(sum(s.values()) - wall[op]) for op, s in per_op.items())
    unknown = {
        name for s in per_op.values() for name in s
    } - set(spans.LAYERS) - {None}
    if unknown:
        raise RuntimeError(f"spans outside the reported layers: {unknown}")
    self_s = defaultdict(float)
    for s in per_op.values():
        for name, value in s.items():
            self_s[name] += value
    calls = tracer.calls()

    metrics = {
        f"{layer}.self_ms": (self_s[layer] / ops * 1e3, "ms")
        for layer in spans.LAYERS
    }
    entries = [f"vectorize.{e}" for e in spans.VECTORIZE_ENTRIES]
    vector_calls = sum(calls[e] for e in entries)
    handled = sum(tracer.counts[f"{e}.handled"] for e in entries)
    hits = sum(1 for outcome, _ in outcomes if outcome == "memory_hit")
    payload = [size for _, size in outcomes]
    metrics.update(
        {
            "frontend.ops_out": (totals["frontend.ops_out"], "count"),
            "device.ops_out": (totals["device.ops_out"], "count"),
            "verifier.calls": (calls["verifier"], "count"),
            "verifier.share": (self_s["verifier"] / traced_s, "ratio"),
            "session.frontend_compiles": (
                tracer.counts["session.frontend_compiles"], "count",
            ),
            "session.device_builds": (
                tracer.counts["session.device_builds"], "count",
            ),
            "service.hit_ratio": (
                hits / len(outcomes) if outcomes else 0.0, "ratio",
            ),
            "service.payload_kb": (
                statistics.mean(payload) / 1024 if payload else 0.0, "KiB",
            ),
            "executor.launches": (totals["executor.launches"], "count"),
            "executor.transfers": (totals["executor.transfers"], "count"),
            "executor.bytes_moved": (totals["executor.bytes_moved"], "bytes"),
            **{f"{e}.calls": (calls[e], "count") for e in entries},
            "vectorize.hit_ratio": (
                handled / vector_calls if vector_calls else 0.0, "ratio",
            ),
            "vectorize.whole_space_loops": (
                totals["vectorize.whole_space_loops"], "count",
            ),
            "jit.setup_ms": (setup_self["jit.compile"] * 1e3, "ms"),
            "interpreter.steps": (totals["interpreter.steps"], "count"),
            "interpreter.msteps_per_s": (
                totals["interpreter.steps"] / untraced_s / 1e6, "Msteps/s",
            ),
            "unattributed_ms": (self_s[None] / ops * 1e3, "ms"),
            "trace.op_ms": (traced_s / ops * 1e3, "ms"),
            "trace.overhead_frac": (
                (traced_s - untraced_s) / untraced_s, "ratio",
            ),
        }
    )
    samples = {name: ops for name in metrics}
    samples["jit.setup_ms"] = 1
    detail = {
        "identity_max_error_s": worst,
        "untraced_op_ms": untraced_s / len(untraced.latencies) * 1e3,
    }
    attempted = untraced.attempted + measured.attempted
    failed = untraced.failed + measured.failed
    if worst > 1e-9:
        failed += 1
        print(f"self times miss traced wall-clock by {worst} s", file=sys.stderr)
    return attempted, failed, metrics, samples, detail


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    cls = WORKLOADS[args.workload]
    expected = load_expected()
    if args.trace:
        outcome = traced(cls, args.seed, expected)
    else:
        outcome = end_to_end(cls, args.seed, args.seconds, expected)
    attempted, failed, metrics, samples, detail = outcome
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "samples": samples,
                **detail,
            }
        )
    )
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )


if __name__ == "__main__":
    main()

"""Check a traced perfbench run against its recorded exact counts.

``perfbench/run.py --trace 1`` ends its output with one JSON result
line.  This script reads that line and exits 1 unless the run was
correct and its exact counts equal the seed-1 values in ``EXPECTED``.
They catch a change that moves the interpreter's step accounting, one
that sends a loop off the whole-space tier or past the benchmark's
name-bound span wrappers, one that drops a verification
(``verifier.calls``: every session pipeline verifies after each pass),
or one that changes which entry runs a loop:
the calls per ``try_vectorized_*`` entry pin the tier choice itself
(on run-kernels, gemm's rows falling back to one reduction call per
(i, j) point would move ``try_vectorized_reduction`` from 24 to about
98k).  ``vectorize.hit_ratio`` (entry calls whose fast path took the
loop, over all entry calls) catches a classified loop whose runtime
proof declines: that loop keeps its call count and its steps, so only
the ratio moves.  These pins are the bench's exact check for silent
fallback at the run-kernels and run-sgesl sizes; ``perf_smoke.py``
keeps only small-size scalar-vs-vectorized ratios.  This file holds the
current values; the "Exact counts" table in ``perfbench/README.md`` is
the record from when the benchmark was written, and
``vectorize.whole_space_loops`` has risen since.

    python3 perfbench/run.py --workload run-kernels --seed 1 --seconds 1 \\
        --trace 1 > out.jsonl
    python3 benchmarks/check_perfbench.py run-kernels out.jsonl
"""

from __future__ import annotations

import json
import sys

#: seed-1 totals over the traced pass, per workload
EXPECTED = {
    "compile-gallery": {
        # one verification per pass boundary: 11 per compile, 110
        # compiles; a gain cannot come from a dropped verification
        "verifier.calls": 1210,
        "interpreter.steps": 0,
        "vectorize.whole_space_loops": 250,
        "vectorize.try_vectorized_loop.calls": 0,
        "vectorize.try_vectorized_reduction.calls": 0,
        "vectorize.try_vectorized_nest.calls": 0,
        "vectorize.try_vectorized_loop_nest.calls": 0,
        # no entry calls: compiles execute nothing
        "vectorize.hit_ratio": 0.0,
    },
    "dse-sweep": {
        "verifier.calls": 204,
        "interpreter.steps": 7448802,
        "vectorize.whole_space_loops": 206,
        "vectorize.try_vectorized_loop.calls": 26,
        "vectorize.try_vectorized_reduction.calls": 50,
        "vectorize.try_vectorized_nest.calls": 8555,
        "vectorize.try_vectorized_loop_nest.calls": 0,
        # 18 of the 8631 entry calls decline: histogram's fold loop at
        # simdlen >= 2 stays on the walk (a buffer both loaded and stored)
        "vectorize.hit_ratio": 8613 / 8631,
    },
    "run-kernels": {
        # kernels are compiled in set-up, so runs verify nothing
        "verifier.calls": 0,
        "interpreter.steps": 1179768012,
        "vectorize.whole_space_loops": 264,
        "vectorize.try_vectorized_loop.calls": 12,
        # dot's and histogram's reduction loops, 12 each
        "vectorize.try_vectorized_reduction.calls": 24,
        "vectorize.try_vectorized_nest.calls": 96,
        "vectorize.try_vectorized_loop_nest.calls": 0,
        "vectorize.hit_ratio": 1.0,
    },
    "run-sgesl": {
        "verifier.calls": 0,
        "interpreter.steps": 1010214800,
        "vectorize.whole_space_loops": 200,
        "vectorize.try_vectorized_loop.calls": 0,
        "vectorize.try_vectorized_reduction.calls": 0,
        "vectorize.try_vectorized_nest.calls": 204600,
        "vectorize.try_vectorized_loop_nest.calls": 0,
        "vectorize.hit_ratio": 1.0,
    },
}


def check(workload: str, lines: list[str]) -> list[str]:
    """The failures of one traced run's output ``lines``."""
    results = [line for line in lines if line.startswith('{"correct"')]
    if not results:
        return ["no result line in the perfbench output"]
    result = json.loads(results[-1])
    failures = []
    if result.get("correct") is not True:
        failures.append(
            f"run not correct: {result.get('failed')} of "
            f"{result.get('attempted')} operations failed"
        )
    metrics = result.get("metrics", {})
    for name, expected in EXPECTED[workload].items():
        got = metrics.get(name, {}).get("value")
        if got != expected:
            failures.append(f"{name} = {got}, expected {expected}")
    return failures


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] not in EXPECTED:
        print(
            f"usage: check_perfbench.py {{{','.join(EXPECTED)}}} OUTPUT",
            file=sys.stderr,
        )
        return 2
    workload, path = argv
    with open(path) as handle:
        failures = check(workload, handle.read().splitlines())
    for failure in failures:
        print(f"{workload}: {failure}", file=sys.stderr)
    if not failures:
        print(f"{workload}: correct, exact counts match")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

"""Check a traced perfbench run against its recorded exact counts.

``perfbench/run.py --trace 1`` ends its output with one JSON result
line.  This script reads that line and exits 1 unless the run was
correct and its exact counts equal the seed-1 values recorded in
``perfbench/README.md`` ("Exact counts").  They catch a change that
moves the interpreter's step accounting, or one that sends a loop off
the whole-space tier or past the benchmark's name-bound span wrappers.

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
        "interpreter.steps": 0,
        "vectorize.whole_space_loops": 230,
    },
    "dse-sweep": {
        "interpreter.steps": 7448802,
        "vectorize.whole_space_loops": 206,
    },
    "run-kernels": {
        "interpreter.steps": 1179768012,
        "vectorize.whole_space_loops": 216,
    },
    "run-sgesl": {
        "interpreter.steps": 1010214800,
        "vectorize.whole_space_loops": 200,
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

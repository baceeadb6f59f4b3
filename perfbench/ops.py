"""The benchmark's four workloads.

Each workload is built by its constructor — the benchmark's set-up: it
compiles what the workload does not time, builds every input and
reference from the seed, and runs each operation kind once so the JIT
module cache and the vectorizer plan caches are warm.  Then, per
operation, the benchmark calls :meth:`prepare` (untimed: fresh copies of
the arguments the operation mutates), :meth:`run` (the timed operation)
and :meth:`check` (untimed: the oracle).  Operations come from
:meth:`stream`, an endless sequence fixed by the seed.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import numpy as np

from repro.service import (
    ArtifactStore,
    CompileRequest,
    CompileService,
    reset_worker_sessions,
)
from repro.session import KernelOverrides, Session
from repro.workloads import all_workloads, dot_reference, get_workload

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def load_expected() -> dict:
    """The recorded oracle values (regenerate with ``record.py``)."""
    return json.loads(EXPECTED_PATH.read_text())


def modelled(result) -> list:
    """The modelled values of one run, which no engine change may move."""
    return [
        result.interpreter_steps, result.device_time_ms, result.kernel_cycles,
    ]


def fresh_args(instance) -> list:
    """The instance's arguments with a fresh copy of every output."""
    args = list(instance.args)
    for pos in instance.expected:
        args[pos] = instance.args[pos].copy()
    return args


def output_errors(expected: dict, args: list) -> str | None:
    for pos, want in expected.items():
        if np.asarray(args[pos]).tobytes() != np.asarray(want).tobytes():
            return f"output argument {pos} differs from the NumPy reference"
    return None


def modelled_errors(want: list, result) -> str | None:
    have = modelled(result)
    if have != want:
        return f"modelled (steps, device_time_ms, kernel_cycles) {have} != {want}"
    return None


def dse_outputs(name: str, instance, copies: int) -> dict:
    """Expected outputs of a dse-sweep point: dot's reference follows the
    point's ``reduction_copies`` partial sums."""
    outputs = dict(instance.expected)
    if name == "dot":
        x, y = instance.args[0], instance.args[1]
        outputs[2] = np.array(dot_reference(x, y, copies), dtype=np.float32)
    return outputs


class Workload:
    """The operation protocol :mod:`run` drives, with its defaults."""

    name: str
    #: operations in a traced run (a whole number of rounds, >= 100)
    trace_ops: int

    def stream(self):
        """Endless operation sequence, fixed by the seed."""
        raise NotImplementedError

    def prepare(self, op):
        """Untimed: the arguments of one operation."""
        return None

    def run(self, op, args):
        """The timed operation."""
        raise NotImplementedError

    def check(self, op, args, result) -> str | None:
        """Untimed oracle: a failure message, or None."""
        raise NotImplementedError

    def kind(self, op, result) -> str:
        """The operation's kind: operations of one kind do about the same
        work, so their latencies differ mostly by the host's noise."""
        return str(op)

    def device_module(self, op, result):
        """The device module the operation built or ran."""
        raise NotImplementedError

    def execution(self, result):
        """The operation's ExecutionResult, if it ran a program."""
        return None

    def response(self, result):
        """The operation's compile-service response, if any."""
        return None

    def close(self) -> None:
        pass


class CompileGallery(Workload):
    """Cold ``Session(source).program()`` over the nine gallery sources,
    in a seeded order per round (the edit-compile loop).

    A round holds eleven compiles: every source once, and the paper's two
    kernels, saxpy and sgesl — also the slowest to compile — a second
    time, so they weigh double in the per-kind latency metric.
    """

    name = "compile-gallery"
    trace_ops = 110  # ten rounds of eleven

    def __init__(self, seed: int, expected: dict):
        self.seed = seed
        self.sources = {w.name: w.source for w in all_workloads()}
        self.reports = expected["compile"]
        for name in self.sources:
            if error := self.check(name, None, self.run(name, None)):
                raise RuntimeError(f"set-up: {name}: {error}")

    def stream(self):
        rng = random.Random(self.seed)
        names = sorted(self.sources) + ["saxpy", "sgesl"]
        while True:
            rng.shuffle(names)
            yield from names

    def run(self, name: str, _):
        return Session(self.sources[name]).program()

    def check(self, name: str, _, program) -> str | None:
        if program.bitstream.report() != self.reports[name]:
            return "bitstream report differs from the recorded one"
        return None

    def device_module(self, name: str, program):
        return program.device_module


class _Runs(Workload):
    """Shared by the run workloads: programs compiled in set-up, one
    instance each, a fresh executor per run on the default tier."""

    def __init__(self, seed: int, expected: dict, sizes: dict[str, int]):
        self.seed = seed
        self.cases = {}
        for name, n in sizes.items():
            workload = get_workload(name)
            program = Session(workload.source).program()
            instance = workload.instance(n, seed)
            want = expected["run"][f"{name}:n={n}"]
            self.cases[name] = (workload, program, instance, want)
            if error := self.check(name, *self._warm(name)):
                raise RuntimeError(f"set-up: {name}: {error}")

    def _warm(self, name):
        args = self.prepare(name)
        return args, self.run(name, args)

    def prepare(self, name: str) -> list:
        return fresh_args(self.cases[name][2])

    def run(self, name: str, args: list):
        workload, program, _, _ = self.cases[name]
        return program.executor().run(workload.entry, *args)

    def check(self, name: str, args: list, result) -> str | None:
        _, _, instance, want = self.cases[name]
        return output_errors(instance.expected, args) or modelled_errors(
            want, result
        )

    def execution(self, result):
        return result

    def device_module(self, name: str, result):
        return self.cases[name][1].device_module


class RunKernels(_Runs):
    """Eight single-launch kernels, round-robin in a seeded order.

    A round holds nine runs: every kernel once and gemm — the one kernel
    still on the JIT walk — a second time, so it weighs double in the
    per-kind latency metric.
    """

    name = "run-kernels"
    trace_ops = 108  # twelve rounds of nine
    SIZES = {
        "gemm": 64,
        "batched_gemm": 64,
        "heat3d": 64,
        "jacobi2d": 512,
        "spmv": 16384,
        "histogram": 262144,
        "dot": 1_000_000,
        "saxpy": 1_000_000,
    }

    def __init__(self, seed: int, expected: dict):
        super().__init__(seed, expected, self.SIZES)

    def stream(self):
        rng = random.Random(self.seed)
        names = sorted(self.cases) + ["gemm"]
        while True:
            rng.shuffle(names)
            yield from names


class RunSgesl(_Runs):
    """The LINPACK solve of paper Table 2 at n=512 (1023 launches)."""

    name = "run-sgesl"
    trace_ops = 100

    def __init__(self, seed: int, expected: dict):
        super().__init__(seed, expected, {"sgesl": 512})

    def stream(self):
        while True:
            yield "sgesl"


class DseSweep(Workload):
    """Seeded design points through one long-lived inline
    ``CompileService`` over a memory-only store; every point's program is
    evaluated at its workload's smoke size.

    Each new point is a build; it is followed by a repeat of the new
    point before it, which is still in the store (a hit), so half the
    points are hits.  New points take the sources in turn, each source
    walking a seeded permutation of its (simdlen, reduction_copies,
    compute_units) grid, so every seed runs the same mix.
    """

    name = "dse-sweep"
    trace_ops = 101  # a build, then 50 rounds of a build and a hit
    #: 1-D sources only: pickling a program artifact raises RecursionError
    #: for heat3d at simdlen>=2 and for jacobi2d/batched_gemm at
    #: simdlen>=4.  Four, because the service keeps four worker sessions:
    #: a fifth source would re-run the frontend whenever one is evicted.
    SOURCES = ("saxpy", "dot", "histogram", "sgesl")
    SIMDLEN = (1, 2, 4, 8)
    COPIES = (1, 2, 4, 8)
    UNITS = (1, 2, 4)
    #: the store's LRU; a repeat is two requests old, and a new point's
    #: last request is at least 48 requests old
    STORE_ENTRIES = 16

    @classmethod
    def points(cls) -> list[tuple]:
        """Every (source, simdlen, reduction_copies, compute_units) point.
        dot runs at simdlen 1 only: its reference models the round-robin
        fold over ``reduction_copies`` partial sums, not the re-association
        that simdlen unrolling adds."""
        return [
            (name, simdlen, copies, units)
            for name in cls.SOURCES
            for simdlen in (cls.SIMDLEN if name != "dot" else (1,))
            for copies in cls.COPIES
            for units in cls.UNITS
        ]

    @staticmethod
    def point_key(point: tuple) -> str:
        name, simdlen, copies, units = point
        return f"{name}:simdlen={simdlen}:copies={copies}:cu={units}"

    def __init__(self, seed: int, expected: dict):
        self.seed = seed
        self.want = expected["dse"]
        self.cases = {}
        for name in self.SOURCES:
            workload = get_workload(name)
            instance = workload.instance(workload.smoke_size, seed)
            outputs = {c: dse_outputs(name, instance, c) for c in self.COPIES}
            self.cases[name] = (workload, instance, outputs)
        # Warm the frontend of every source in the service's worker
        # sessions with a throwaway store, so the timed service starts
        # with an empty store.
        reset_worker_sessions()
        with CompileService(store=ArtifactStore(), max_workers=0) as warm:
            for name in self.SOURCES:
                point = (name, 1, 8, 1)
                response = warm.compile(self._request(point))
                args = self.prepare(point)
                result = self._evaluate(point, response.artifact, args)
                if error := self.check(point, args, (response, result)):
                    raise RuntimeError(f"set-up: {point}: {error}")
        self.service = CompileService(
            store=ArtifactStore(memory_entries=self.STORE_ENTRIES),
            max_workers=0,
        )

    def close(self) -> None:
        self.service.close()

    def stream(self):
        rng = random.Random(self.seed)
        grids = {name: [] for name in self.SOURCES}
        for point in self.points():
            grids[point[0]].append(point)
        for grid in grids.values():
            rng.shuffle(grid)
        builds = []
        while True:
            for name in rng.sample(self.SOURCES, len(self.SOURCES)):
                grid = grids[name]
                builds.append(grid[len(builds) // len(grids) % len(grid)])
                yield builds[-1]
                yield from builds[-2:-1]

    def kind(self, point: tuple, result) -> str:
        return f"{point[0]} {result[0].metrics.outcome}"

    def _request(self, point: tuple) -> CompileRequest:
        name, simdlen, copies, units = point
        return CompileRequest(
            self.cases[name][0].source,
            overrides=KernelOverrides(
                simdlen=simdlen, reduction_copies=copies, compute_units=units
            ),
        )

    def _evaluate(self, point, program, args):
        return program.executor().run(self.cases[point[0]][0].entry, *args)

    def prepare(self, point: tuple) -> list:
        return fresh_args(self.cases[point[0]][1])

    def run(self, point: tuple, args: list):
        response = self.service.compile(self._request(point))
        return response, self._evaluate(point, response.artifact, args)

    def check(self, point: tuple, args: list, result) -> str | None:
        _, evaluation = result
        outputs = self.cases[point[0]][2][point[2]]
        return output_errors(outputs, args) or modelled_errors(
            self.want[self.point_key(point)], evaluation
        )

    def execution(self, result):
        return result[1]

    def response(self, result):
        return result[0]

    def device_module(self, point: tuple, result):
        return result[0].artifact.device_module


WORKLOADS = {
    cls.name: cls for cls in (CompileGallery, DseSweep, RunKernels, RunSgesl)
}

"""The bench gates: ``perf_smoke.py --check-against`` and
``check_perfbench.py``.

PR 7 bugfix: the ``--check-against`` gate used to iterate the
intersection of baseline and current entries, so a bench or ``*_tiers``
entry that vanished from the current run (a retired workload, a tier
bench silently dropped by a refactor) simply un-gated its own
regression.  Missing entries are now first-class reported failures —
never a silent pass, never a traceback.

``check_perfbench.check`` is fed synthetic perfbench result lines: any
exact count that drifts, a missing result line or an incorrect run must
be a reported failure.

``perf_smoke.py`` reads its baseline before it runs and refuses an
``--out`` that would overwrite it, so the gate never compares a run
with itself.

perfbench binds its span wrappers to ``src/`` names from outside the
package, and its workloads drive the compile service's API;
``TestPerfbenchBindings`` installs the wrappers in a fresh interpreter
and traces one compile, and runs dse-sweep's first operations, so
renaming a name perfbench uses fails here too.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]


def _load(name):
    spec = importlib.util.spec_from_file_location(
        name, REPO / "benchmarks" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


perf_smoke = _load("perf_smoke")
check_perfbench = _load("check_perfbench")

check_against = perf_smoke.check_against


def _payload(benches=(), **tier_sections):
    payload = {"benches": list(benches)}
    for key, entries in tier_sections.items():
        payload[key] = list(entries)
    return payload


BENCH = {
    "name": "spmv:n=1024",
    "seconds": 0.5,
    "interpreter_steps": 1000,
    "device_time_ms": 1.25,
    "kernel_cycles": 250000.0,
}
TIER = {
    "name": "spmv:n=4096",
    "scalar_seconds": 30.0,
    "vectorized_seconds": 0.05,
    "speedup": 600.0,
    "floor": 5.0,
    "interpreter_steps": 1000,
}


class TestMissingEntries:
    def test_identical_payloads_pass(self):
        base = _payload([BENCH], segmented_tiers=[TIER])
        cur = _payload([BENCH], segmented_tiers=[TIER])
        assert check_against(base, cur) == []

    def test_missing_bench_is_a_reported_failure(self):
        base = _payload([BENCH])
        cur = _payload([])
        failures = check_against(base, cur)
        assert len(failures) == 1
        assert "spmv:n=1024" in failures[0]
        assert "missing from current run" in failures[0]

    def test_missing_tier_entry_is_a_reported_failure(self):
        """The exact regression shape: a baseline that records a speedup
        floor for a tier bench the current run no longer produces."""
        base = _payload([], segmented_tiers=[TIER])
        cur = _payload([])
        failures = check_against(base, cur)
        assert len(failures) == 1
        assert "segmented_tiers:spmv:n=4096" in failures[0]
        assert "missing from current run" in failures[0]

    def test_missing_tier_section_reports_every_entry(self):
        other = dict(TIER, name="sgesl:n=512")
        base = _payload([], segmented_tiers=[TIER, other])
        cur = _payload([], nest_tiers=[dict(TIER, name="heat3d:n=64")])
        failures = check_against(base, cur)
        assert len(failures) == 2
        assert all("missing from current run" in f for f in failures)

    def test_current_only_entries_never_fail(self):
        base = _payload([])
        cur = _payload([BENCH], segmented_tiers=[TIER])
        assert check_against(base, cur) == []


class TestDriftAndFloor:
    def test_modelled_drift_fails(self):
        base = _payload([BENCH])
        cur = _payload([dict(BENCH, kernel_cycles=999.0)])
        failures = check_against(base, cur)
        assert len(failures) == 1
        assert "kernel_cycles" in failures[0]

    def test_wall_clock_never_gates(self):
        base = _payload([BENCH])
        cur = _payload([dict(BENCH, seconds=50.0)])
        assert check_against(base, cur) == []

    def test_speedup_below_floor_fails(self):
        base = _payload([], segmented_tiers=[TIER])
        cur = _payload([], segmented_tiers=[dict(TIER, speedup=3.2)])
        failures = check_against(base, cur)
        assert len(failures) == 1
        assert "below the recorded floor" in failures[0]

    def test_scaling_tier_floor_gates_like_any_tier(self):
        """The PR 10 scaling_tiers section rides the same floor check:
        a collapsed multi-CU speedup is a reported failure."""
        entry = {
            "name": "strong:saxpy:n=1000000:cu=2",
            "device_time_ms": 56.05,
            "kernel_cycles": 1.6e6,
            "speedup": 1.953,
            "floor": 1.6,
        }
        base = _payload([], scaling_tiers=[entry])
        assert check_against(base, _payload([], scaling_tiers=[entry])) == []
        failures = check_against(
            base, _payload([], scaling_tiers=[dict(entry, speedup=1.02)])
        )
        assert len(failures) == 1
        assert "scaling_tiers:strong:saxpy:n=1000000:cu=2" in failures[0]


class TestBaselineIsNotOverwritten:
    """``--out`` defaults to ``BENCH_pr10.json``, so ``--check-against
    BENCH_pr10.json`` alone used to write the run over the committed
    baseline and then pass against its own numbers."""

    @pytest.fixture
    def no_bench(self, monkeypatch):
        def ran(*args, **kwargs):
            raise AssertionError("the bench ran")

        monkeypatch.setattr(perf_smoke, "bench_service_tiers", ran)

    def _main(self, monkeypatch, *argv):
        monkeypatch.setattr(sys, "argv", ["perf_smoke.py", *argv])
        with pytest.raises(SystemExit) as info:
            perf_smoke.main()
        return info.value.code

    def test_out_naming_the_baseline_exits_without_writing(
        self, tmp_path, monkeypatch, no_bench
    ):
        baseline = tmp_path / "base.json"
        baseline.write_text('{"benches": []}\n')
        monkeypatch.chdir(tmp_path)
        code = self._main(
            monkeypatch, "--out", str(baseline), "--check-against", "base.json"
        )
        assert code not in (0, None)
        assert baseline.read_text() == '{"benches": []}\n'

    def test_default_out_is_the_committed_baseline(self, monkeypatch, no_bench):
        committed = REPO / "BENCH_pr10.json"
        before = committed.read_bytes()
        monkeypatch.chdir(REPO)
        code = self._main(monkeypatch, "--check-against", "BENCH_pr10.json")
        assert code not in (0, None)
        assert committed.read_bytes() == before

    def test_unreadable_baseline_fails_before_the_run(
        self, tmp_path, monkeypatch, no_bench
    ):
        with pytest.raises(FileNotFoundError):
            self._main(
                monkeypatch,
                "--out", str(tmp_path / "out.json"),
                "--check-against", str(tmp_path / "missing.json"),
            )


class TestBaselineName:
    def test_every_failure_line_names_the_baseline_file(self):
        """PR 10 bugfix: a CI log line must be attributable to the exact
        baseline file that gated it."""
        base = _payload(
            [BENCH, dict(BENCH, name="gone:n=1")],
            segmented_tiers=[TIER],
        )
        cur = _payload(
            [dict(BENCH, kernel_cycles=999.0)],
            segmented_tiers=[dict(TIER, speedup=3.2)],
        )
        failures = check_against(base, cur, baseline_name="BENCH_pr10.json")
        assert len(failures) == 3
        assert all("BENCH_pr10.json" in line for line in failures)

    def test_positional_call_still_works(self):
        base = _payload([BENCH])
        cur = _payload([dict(BENCH, kernel_cycles=999.0)])
        failures = check_against(base, cur)
        assert len(failures) == 1
        assert "baseline" in failures[0]


def _result_lines(workload, correct=True, **overrides):
    """A perfbench output whose last line is a result carrying
    ``workload``'s expected counts, with ``overrides`` applied."""
    counts = {**check_perfbench.EXPECTED[workload], **overrides}
    result = {
        "correct": correct,
        "attempted": 10,
        "failed": 0 if correct else 1,
        "metrics": {
            name: {"value": value, "unit": "count"}
            for name, value in counts.items()
        },
    }
    return ['{"samples": {}}', json.dumps(result)]


class TestCheckPerfbench:
    def test_matching_counts_pass(self):
        for workload in check_perfbench.EXPECTED:
            lines = _result_lines(workload)
            assert check_perfbench.check(workload, lines) == []

    def test_drifted_hit_ratio_fails(self):
        """A loop whose runtime proof declines keeps its entry calls and
        its steps; only the hit ratio sees it."""
        lines = _result_lines("run-sgesl", **{"vectorize.hit_ratio": 0.99})
        failures = check_perfbench.check("run-sgesl", lines)
        assert len(failures) == 1
        assert "vectorize.hit_ratio" in failures[0]

    def test_drifted_calls_fail(self):
        name = "vectorize.try_vectorized_reduction.calls"
        lines = _result_lines("run-kernels", **{name: 98_328})
        failures = check_perfbench.check("run-kernels", lines)
        assert len(failures) == 1
        assert name in failures[0]

    def test_drifted_verifier_calls_fail(self):
        """A compile that skips a verification is not a faster verifier."""
        lines = _result_lines("compile-gallery", **{"verifier.calls": 1100})
        failures = check_perfbench.check("compile-gallery", lines)
        assert failures == ["verifier.calls = 1100, expected 1210"]

    def test_missing_result_line_fails(self):
        lines = _result_lines("run-kernels")[:1]
        failures = check_perfbench.check("run-kernels", lines)
        assert failures == ["no result line in the perfbench output"]

    def test_incorrect_run_fails(self):
        lines = _result_lines("dse-sweep", correct=False)
        failures = check_perfbench.check("dse-sweep", lines)
        assert len(failures) == 1
        assert "not correct" in failures[0]


#: installs perfbench's span wrappers, traces one direct and one
#: service compile, and prints the recorded layers and counters
_TRACE_ONE_COMPILE = """
import json
import spans
from repro.service import ArtifactStore, CompileRequest, CompileService
from repro.session import Session
from repro.workloads import get_workload

tracer = spans.Tracer()
spans.install(tracer)
source = get_workload("saxpy").source
with tracer.root(0):
    Session(source).program()
    with CompileService(store=ArtifactStore(), max_workers=0) as service:
        service.compile(CompileRequest(source))
        response = service.compile(CompileRequest(source))
print(json.dumps({
    "layers": sorted(name for name in tracer.calls() if name),
    "counts": dict(tracer.counts),
    "payload_bytes": response.metadata["payload_bytes"],
}))
"""

#: builds dse-sweep as the benchmark does, runs and checks its first
#: three operations, and prints each one's service outcome
_RUN_DSE_SWEEP = """
import json
import ops

workload = ops.DseSweep(1, ops.load_expected())
try:
    stream = workload.stream()
    outcomes = []
    for _ in range(3):
        point = next(stream)
        args = workload.prepare(point)
        result = workload.run(point, args)
        error = workload.check(point, args, result)
        assert error is None, (point, error)
        outcomes.append(workload.response(result).metrics.outcome)
finally:
    workload.close()
print(json.dumps(outcomes))
"""


def _run_with_perfbench(script: str):
    """Run ``script`` in a fresh interpreter that imports perfbench's
    modules, and return the JSON its last stdout line holds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        str(REPO / part) for part in ("src", "perfbench")
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestPerfbenchBindings:
    def test_span_wrappers_install_and_trace_a_compile(self):
        """Every name perfbench wraps (session stages, the service build
        function, store methods, vectorizer entries, one layer per
        registered pass) still exists and keeps its call shape."""
        traced = _run_with_perfbench(_TRACE_ONE_COMPILE)
        assert {
            "frontend.parse", "verifier", "pass.lower-omp-mapped-data",
            "backend.host_codegen", "backend.vitis", "session.frontend",
            "session.host_device", "session.device_build",
            "service.build", "service.store", "service.load",
        } <= set(traced["layers"])
        # one frontend and one device build per session: the direct one
        # and the service's worker session; the second request hits
        assert traced["counts"] == {
            "session.frontend_compiles": 2, "session.device_builds": 2,
        }
        assert traced["payload_bytes"] > 0

    def test_dse_sweep_runs_through_the_service_api(self):
        """dse-sweep builds its requests, service and store through the
        API perfbench imports: two builds and a store hit run and pass
        their oracle."""
        outcomes = _run_with_perfbench(_RUN_DSE_SWEEP)
        assert outcomes == ["built", "built", "memory_hit"]

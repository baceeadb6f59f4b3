"""The example scripts must run end-to-end (quick modes).

Examples run with ``-W error::DeprecationWarning`` (part of the CI fast
job): they are the public face of the API, so any deprecated call path
(such as a digest over a mutable ``MemorySpacePolicy`` object) fails the
example outright.
"""

import subprocess
import sys
from pathlib import Path


EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str, *args: str) -> str:
    result = subprocess.run(
        [
            sys.executable,
            "-W", "error::DeprecationWarning",
            str(EXAMPLES / name),
            *args,
        ],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "correct" in out
    assert "Vitis (simulated) utilization report" in out
    assert "clEnqueueWriteBuffer" in out or "ftn_rt" in out


def test_saxpy_quick():
    out = run_example("saxpy.py", "--quick")
    assert "Fortran OpenMP (ms)" in out
    assert "10000" in out


def test_sgesl_quick():
    out = run_example("sgesl.py", "--quick")
    assert "residual" in out
    assert "DSP-mapped MAC" in out


def test_nested_data_regions():
    out = run_example("nested_data_regions.py")
    assert "with target data" in out
    # the scoped version must transfer strictly less
    lines = [
        line for line in out.splitlines()
        if line.startswith("bytes host->device")
    ]
    scoped, bare = (int(x) for x in lines[0].split()[-2:])
    assert scoped < bare


def test_reduction_offload():
    out = run_example("reduction_offload.py")
    assert "reduction copies = 1" in out
    assert "reduction copies = 8" in out
    assert "relative error" in out


def test_design_space_exploration():
    out = run_example("design_space_exploration.py")
    assert "Design-space exploration" in out
    assert "best: simdlen(" in out


def test_service_quickstart():
    out = run_example("service_quickstart.py")
    assert "memory_hit" in out
    assert "disk_hit" in out
    assert "matches the NumPy reference bit-for-bit" in out
    assert "8 concurrent requests -> 1 build, 7 coalesced" in out

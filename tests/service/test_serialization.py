"""Pickle round-trips: stage artifacts rerun bit-identically, wrapped
errors survive the process-pool boundary."""

from __future__ import annotations

import io
import pickle
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.ir.core import Operation
from repro.reliability import FrontendError, ReproError, wrap_error
from repro.session import KernelOverrides, Session
from repro.workloads import all_workloads, get_workload
from tests.conftest import SAXPY_MINI, run_offload_saxpy


# -- stage artifact round-trips ----------------------------------------------


@pytest.fixture(scope="module")
def session():
    return Session(SAXPY_MINI)


def _round_trip(obj):
    return pickle.loads(
        pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    )


def test_frontend_artifact_round_trip(session):
    artifact = _round_trip(session.frontend())
    assert sorted(artifact.program_info.units) == sorted(
        session.frontend().program_info.units
    )
    assert str(artifact.module) == str(session.frontend().module)


def test_host_device_artifact_round_trip(session):
    artifact = _round_trip(session.host_device())
    original = session.host_device()
    assert artifact.host_cpp == original.host_cpp
    assert str(artifact.device_module) == str(original.device_module)


def test_device_build_round_trip_preserves_schedules(session):
    overrides = KernelOverrides(simdlen=4)
    build = session.device_build(overrides)
    copy = _round_trip(build)
    ours = build.bitstream.utilization()
    theirs = copy.bitstream.utilization()
    assert (ours.lut, ours.dsp) == (theirs.lut, theirs.dsp)
    # the loop schedules are keyed by their op, which pickles with the
    # module: every key is an op of the unpickled module
    module_ops = set(copy.device_module.walk())
    for name, kernel in copy.bitstream.kernels.items():
        assert kernel.loops, name
        assert set(kernel.loops) <= module_ops, name
        assert all(s.loop is op for op, s in kernel.loops.items()), name


def test_program_round_trip_reruns_bit_identically(session):
    program = session.program()
    copy = _round_trip(program)
    y1, expected, r1 = run_offload_saxpy(program)
    y2, _, r2 = run_offload_saxpy(copy)
    np.testing.assert_array_equal(y1, expected)
    assert y1.tobytes() == y2.tobytes()
    assert r1.interpreter_steps == r2.interpreter_steps
    assert r1.device_time_ms == r2.device_time_ms
    assert r1.kernel_cycles == r2.kernel_cycles


_GALLERY_SESSIONS: dict[str, Session] = {}


@pytest.mark.parametrize("simdlen", [None, 2, 4])
@pytest.mark.parametrize("name", [w.name for w in all_workloads()])
def test_gallery_program_round_trip_reruns_bit_identically(name, simdlen):
    """Every gallery program pickles at the default recursion limit and
    reruns bit-identically.  Values pickle without their def-use links
    (heat3d at simdlen 2 once raised RecursionError following them), so
    the loaded copy must have rebuilt every use at its old position."""
    workload = get_workload(name)
    session = _GALLERY_SESSIONS.setdefault(name, workload.session())
    program = session.program(KernelOverrides(simdlen=simdlen))
    copy = _round_trip(program)
    for module in (copy.host_module, copy.device_module):
        for op in module.walk():
            for index, (value, use) in enumerate(
                zip(op.operands, op._operand_uses)
            ):
                assert (use.operation, use.index) == (op, index)
                assert value.uses[use.pos] is use
                assert None not in value.uses
    runs = []
    for candidate in (program, copy):
        result, instance = workload.run(candidate)
        outputs = {
            pos: np.asarray(arg).tobytes()
            for pos, arg in instance.outputs().items()
        }
        runs.append((result, outputs))
    (ours, our_outputs), (theirs, their_outputs) = runs
    assert their_outputs == our_outputs
    assert theirs.interpreter_steps == ours.interpreter_steps
    assert theirs.device_time_ms == ours.device_time_ms
    assert theirs.kernel_cycles == ours.kernel_cycles


def test_program_reruns_bit_identically_in_fresh_process(tmp_path):
    """The acceptance bar: an artifact pickled here and rerun in a brand
    new interpreter produces the same outputs AND modelled metrics."""
    program = Session(SAXPY_MINI).program()
    y, expected, result = run_offload_saxpy(program)
    blob = tmp_path / "program.pkl"
    blob.write_bytes(
        pickle.dumps(program, protocol=pickle.HIGHEST_PROTOCOL)
    )
    script = (
        "import pickle, sys, json\n"
        "import numpy as np\n"
        "from tests.conftest import run_offload_saxpy\n"
        f"program = pickle.loads(open({str(blob)!r}, 'rb').read())\n"
        "y, expected, result = run_offload_saxpy(program)\n"
        "print(json.dumps({\n"
        "    'y': y.tobytes().hex(),\n"
        "    'steps': result.interpreter_steps,\n"
        "    'device_time_ms': result.device_time_ms,\n"
        "    'kernel_cycles': result.kernel_cycles,\n"
        "}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        cwd=Path(__file__).resolve().parents[2],
        check=True,
    )
    import json

    remote = json.loads(proc.stdout.strip().splitlines()[-1])
    assert bytes.fromhex(remote["y"]) == y.tobytes()
    assert remote["steps"] == result.interpreter_steps
    assert remote["device_time_ms"] == result.device_time_ms
    assert remote["kernel_cycles"] == result.kernel_cycles


def _dumps(obj) -> bytes:
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def _pickled_ops(obj) -> list[Operation]:
    """Every op in ``obj``'s pickled object graph."""
    ops = []

    class Collect(pickle.Pickler):
        def reducer_override(self, value):
            if isinstance(value, Operation):
                ops.append(value)
            return NotImplemented

    Collect(io.BytesIO(), protocol=pickle.HIGHEST_PROTOCOL).dump(obj)
    return ops


def test_program_bytes_do_not_depend_on_operand_reads():
    """An op's operand tuple is a cache filled on first read; a stored
    program's bytes used to change once code had read it."""
    program = Session(SAXPY_MINI).program()
    before = _dumps(program)
    for op in _pickled_ops(program):
        op.operands
    assert _dumps(program) == before


def test_payload_with_filled_operand_caches_loads_the_same_program():
    """Store-version-4 payloads written while the operand cache pickled
    with its op hold filled tuples.  They load to the same program (so
    the store version stays 4): each loaded cache holds the op's own
    operands, and the copy pickles as a copy loaded from today's payload
    does and reruns as the original does."""
    program = Session(SAXPY_MINI).program()
    for op in _pickled_ops(program):
        op.operands

    def filled_cache_getstate(self):
        state = object.__getstate__(self)
        state[1].pop("analysis_cache", None)
        return state

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Operation, "__getstate__", filled_cache_getstate)
        payload = _dumps(program)
    assert payload != _dumps(program)
    loaded = pickle.loads(payload)
    for op in _pickled_ops(loaded):
        cached = op._operands_tuple
        assert len(cached) == len(op._operands)
        assert all(a is b for a, b in zip(cached, op._operands))
    assert _dumps(loaded) == _dumps(pickle.loads(_dumps(program)))
    y1, expected, r1 = run_offload_saxpy(program)
    y2, _, r2 = run_offload_saxpy(loaded)
    np.testing.assert_array_equal(y1, expected)
    assert y1.tobytes() == y2.tobytes()
    assert (r1.interpreter_steps, r1.device_time_ms, r1.kernel_cycles) == (
        r2.interpreter_steps, r2.device_time_ms, r2.kernel_cycles
    )


# -- wrapped errors across process boundaries --------------------------------


class ForeignParserError(Exception):
    """Stand-in for a third-party exception adopted into the taxonomy."""


def test_wrapped_error_pickle_round_trip():
    original = ForeignParserError("unexpected token")
    wrapped = wrap_error(
        original, FrontendError, kernel="saxpy", context="line 3"
    )
    copy = _round_trip(wrapped)
    assert type(copy) is type(wrapped)
    assert isinstance(copy, FrontendError)
    assert isinstance(copy, ForeignParserError)
    assert isinstance(copy, ReproError)
    assert copy.kernel == "saxpy"
    assert copy.context == "line 3"
    assert copy.stage == "frontend"
    assert str(copy) == str(wrapped)


def _raise_wrapped(_index):
    raise wrap_error(
        ForeignParserError("worker-side failure"),
        FrontendError,
        context="pool",
    )


@pytest.mark.slow
def test_wrapped_error_survives_process_pool_boundary():
    """Regression: a worker raising a dynamically created wrapped class
    must reconstruct in the parent (the default pickle path cannot find
    the class by qualname)."""
    with ProcessPoolExecutor(max_workers=1) as pool:
        with pytest.raises(FrontendError) as info:
            pool.submit(_raise_wrapped, 0).result()
    assert isinstance(info.value, ForeignParserError)
    assert info.value.context == "pool"

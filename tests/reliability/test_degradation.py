"""Graceful engine-tier degradation: vectorized -> JIT -> scalar.

An internal crash in a *fast* tier (the vectorizer's classification or
the block-JIT's function compilation) must never take down a run the
scalar interpreter could complete: the crash is logged at WARNING on
``repro.reliability``, recorded on the attached RunReport, and the next
tier produces the bit-identical result.
"""

import logging

import numpy as np
import pytest

import repro.ir.vectorize as vectorize
from repro.dialects import arith, builtin, func, memref, scf
from repro.ir import Builder, Interpreter
from repro.ir.core import invalidate_analysis
from repro.ir.types import FunctionType, MemRefType, f32

from tests.reliability.conftest import assert_bit_identical, run_saxpy


@pytest.fixture(autouse=True)
def _clean_analysis_cache(request):
    """Degradation poisons the per-root analysis cache (by design — one
    record per loop, not per execution).  Hand-built modules die with
    the test, but the session-scoped saxpy program's device module
    lives on: drop its entries so later suites re-classify fresh."""
    yield
    if "saxpy_program" in request.fixturenames:
        program = request.getfixturevalue("saxpy_program")
        invalidate_analysis(program.device_module)


def _build_elementwise(n: int):
    """y[i] = x[i] + x[i]: vectorizable, so a classification crash has a
    fast path to degrade *from*."""
    module = builtin.ModuleOp()
    vec = MemRefType(f32, [n])
    fn = func.FuncOp("f", FunctionType([vec, vec], []))
    module.body.add_op(fn)
    b = Builder.at_end(fn.body)
    lb = b.insert(arith.Constant.index(0)).results[0]
    ub = b.insert(arith.Constant.index(n)).results[0]
    step = b.insert(arith.Constant.index(1)).results[0]
    loop = b.insert(scf.For(lb, ub, step))
    inner = Builder.at_end(loop.body)
    x, y = fn.body.args
    xv = inner.insert(memref.Load(x, [loop.induction_var])).results[0]
    r = inner.insert(arith.AddF(xv, xv)).results[0]
    inner.insert(memref.Store(r, y, [loop.induction_var]))
    inner.insert(scf.Yield())
    b.insert(func.ReturnOp())
    return module


def _crash(*_args, **_kwargs):
    raise RuntimeError("injected engine crash")


@pytest.mark.parametrize("compiled", [False, True])
class TestVectorizerDegradation:
    def test_classification_crash_falls_back_to_scalar(
        self, monkeypatch, caplog, compiled
    ):
        """On either engine the crashing loop alone degrades: under the
        block-JIT the function stays compiled and the loop takes the JIT
        walk, so no ``block-jit`` degradation is recorded."""
        n = 128
        rng = np.random.default_rng(5)
        x = rng.standard_normal(n).astype(np.float32)

        module = _build_elementwise(n)
        y_scalar = np.zeros(n, np.float32)
        Interpreter(module, compiled=False, vectorize=False).call(
            "f", x, y_scalar
        )

        monkeypatch.setattr(vectorize, "_classify", _crash)
        module2 = _build_elementwise(n)
        y_degraded = np.zeros(n, np.float32)
        interp = Interpreter(module2, compiled=compiled, vectorize=True)
        with caplog.at_level(logging.WARNING, logger="repro.reliability"):
            interp.call("f", x, y_degraded)

        assert y_degraded.tobytes() == y_scalar.tobytes()
        assert any(
            "engine degradation" in r.message
            and "vectorized -> scalar" in r.message
            for r in caplog.records
        )
        assert not any("block-jit" in r.message for r in caplog.records)
        assert not interp._degraded_functions

    def test_crash_is_recorded_once_per_loop(
        self, monkeypatch, caplog, compiled
    ):
        """The poisoned analysis-cache entry means the second execution
        of the same loop goes straight to the scalar walk — one WARNING,
        not one per call."""
        n = 128
        x = np.ones(n, np.float32)
        monkeypatch.setattr(vectorize, "_classify", _crash)
        module = _build_elementwise(n)
        interp = Interpreter(module, compiled=compiled, vectorize=True)
        with caplog.at_level(logging.WARNING, logger="repro.reliability"):
            interp.call("f", x, np.zeros(n, np.float32))
            interp.call("f", x, np.zeros(n, np.float32))
        warnings = [
            r for r in caplog.records if "engine degradation" in r.message
        ]
        assert len(warnings) == 1


class TestJitDegradation:
    def test_compile_crash_falls_back_to_scalar(self, monkeypatch, caplog):
        n = 128
        rng = np.random.default_rng(7)
        x = rng.standard_normal(n).astype(np.float32)

        module = _build_elementwise(n)
        y_scalar = np.zeros(n, np.float32)
        Interpreter(module, compiled=False).call("f", x, y_scalar)

        monkeypatch.setattr(Interpreter, "_compiled_function", _crash)
        module2 = _build_elementwise(n)
        y_degraded = np.zeros(n, np.float32)
        interp = Interpreter(module2, compiled=True)
        with caplog.at_level(logging.WARNING, logger="repro.reliability"):
            interp.call("f", x, y_degraded)

        assert y_degraded.tobytes() == y_scalar.tobytes()
        assert any(
            "block-jit -> scalar" in r.message for r in caplog.records
        )

    def test_degraded_function_is_remembered(self, monkeypatch, caplog):
        n = 128
        x = np.ones(n, np.float32)
        monkeypatch.setattr(Interpreter, "_compiled_function", _crash)
        module = _build_elementwise(n)
        interp = Interpreter(module, compiled=True)
        with caplog.at_level(logging.WARNING, logger="repro.reliability"):
            interp.call("f", x, np.zeros(n, np.float32))
            interp.call("f", x, np.zeros(n, np.float32))
        warnings = [
            r for r in caplog.records if "engine degradation" in r.message
        ]
        assert len(warnings) == 1
        assert "f" in interp._degraded_functions


class TestDegradationInRunReport:
    @pytest.mark.parametrize("compiled", [False, True])
    def test_executor_records_degradation_and_stays_bit_identical(
        self, monkeypatch, saxpy_program, saxpy_baseline, compiled
    ):
        """Under the executor, an engine crash during the device kernel's
        loop classification degrades each loop to its engine's own walk
        — same outputs, same modelled numbers — and the RunReport names
        each loop's fallback once, with no ``block-jit`` record."""
        # fresh cache: the program's loops were classified (and the
        # kernel compiled) by earlier runs, and cached entries
        # short-circuit the crash
        invalidate_analysis(saxpy_program.device_module)
        monkeypatch.setattr(vectorize, "_classify", _crash)
        candidate = run_saxpy(saxpy_program, compiled=compiled)
        assert_bit_identical(saxpy_baseline, candidate)
        report = candidate[1].report
        loops = [
            op
            for op in saxpy_program.device_module.walk()
            if op.name == "scf.for"
        ]
        assert len(report.degradations) == len(loops)
        assert all(
            d.tier_from == "vectorized" and d.tier_to == "scalar"
            for d in report.degradations
        )
        assert report.recovered

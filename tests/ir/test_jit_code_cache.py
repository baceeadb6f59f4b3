"""The block-JIT's per-process code cache.

Each ``func.func`` body becomes one generated Python function whose
source depends only on op names, semantic attributes and slot layout;
per-function values are factory arguments.  Compiled source is cached
per process by its text, so a freshly unpickled program of a seen shape
compiles nothing, while the functions themselves stay in the module's
analysis cache and die with it.
"""

from __future__ import annotations

import gc
import pickle
import weakref

import pytest

import repro.ir.compile as jit
from repro.ir.core import invalidate_analysis
from repro.session import KernelOverrides, Session
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def sgesl():
    workload = get_workload("sgesl")
    return workload, Session(workload.source)


def _run(workload, program):
    result, instance = workload.run(program)
    workload.check(instance)
    return result


def test_unpickled_copies_compile_each_source_once(sgesl):
    workload, session = sgesl
    payload = pickle.dumps(session.program(KernelOverrides(simdlen=2)))
    jit._factory.cache_clear()
    first = _run(workload, pickle.loads(payload))
    cold = jit._factory.cache_info()
    # the host driver, its two launch wrappers and two kernels
    assert 0 < cold.misses <= 5
    second = _run(workload, pickle.loads(payload))
    warm = jit._factory.cache_info()
    assert warm.misses == cold.misses
    assert warm.hits - cold.hits == cold.hits + cold.misses
    assert second.device_time_ms == first.device_time_ms
    assert second.interpreter_steps == first.interpreter_steps


def test_another_simdlen_compiles_anew(sgesl):
    workload, session = sgesl
    jit._factory.cache_clear()
    _run(workload, session.program(KernelOverrides(simdlen=2)))
    before = jit._factory.cache_info().misses
    _run(workload, session.program(KernelOverrides(simdlen=4)))
    assert jit._factory.cache_info().misses > before


def test_invalidate_analysis_drops_compiled_functions(sgesl, monkeypatch):
    workload, session = sgesl
    program = session.program()
    _run(workload, program)  # compiled and cached on the modules
    compiled = []
    generate = jit.compile_function

    def counting(func_op):
        compiled.append(func_op)
        return generate(func_op)

    monkeypatch.setattr(jit, "compile_function", counting)
    _run(workload, program)
    assert compiled == []
    invalidate_analysis(program.device_module)
    _run(workload, program)
    assert {op.attributes["sym_name"].value for op in compiled} == {
        "sgesl_update_kernel_0", "sgesl_back_update_kernel_1",
    }


def test_dropped_program_is_freed_with_the_cache_warm():
    """The cache holds code only: with it warm, nothing it holds keeps a
    dropped program's modules alive.  IR blocks point back at their
    parents, so a module is a reference cycle, freed by the collector."""
    workload = get_workload("saxpy")
    program = Session(workload.source).program()
    _run(workload, program)
    host = weakref.ref(program.host_module)
    device = weakref.ref(program.device_module)
    del program
    assert jit._factory.cache_info().currsize > 0
    gc.collect()
    assert host() is None
    assert device() is None

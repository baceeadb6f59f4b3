"""Verifier cost guards.

The operand back-reference check is O(1) per operand (each Use records
its position in the value's use list), so verifying a module is linear
in op count even when one value fans out to thousands of users.  The
pre-PR-9 verifier scanned ``operand.uses`` per operand, which made
high-fanout modules quadratic and ``verify_each=True`` pipelines pay
that at every pass boundary.  These tests pin both properties:
near-linear scaling on a pathological fan-out module, and bounded
``verify_each`` overhead on a real pipeline.

An operand in scope passes dominance and visibility with one set
lookup; only a miss walks the enclosing blocks in ``_check_visibility``.
A gallery compile misses nothing, which is counted, not timed.
"""

import time

from repro.dialects import arith, builtin, func
from repro.ir import Builder, verify
from repro.ir.pass_manager import PassManager
from repro.ir.types import FunctionType


def fanout_module(n_users: int):
    """One constant consumed by ``n_users`` adds — every operand of every
    add is the same value, so per-operand use-list scans are worst-case."""
    module = builtin.ModuleOp()
    fn = func.FuncOp("fanout", FunctionType([], []))
    module.body.add_op(fn)
    b = Builder.at_end(fn.body)
    c = b.insert(arith.Constant.index(1))
    for _ in range(n_users):
        b.insert(arith.AddI(c.results[0], c.results[0]))
    b.insert(func.ReturnOp())
    return module


def best_of(runs: int, fn) -> float:
    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_verify_scales_linearly_on_high_fanout():
    small = fanout_module(400)
    large = fanout_module(1600)
    t_small = best_of(3, lambda: verify(small))
    t_large = best_of(3, lambda: verify(large))
    # 4x the ops: linear predicts ~4x, the old quadratic scan ~16x.
    # 8x leaves headroom for timer noise while still failing quadratic.
    assert t_large < 8 * max(t_small, 1e-5), (t_small, t_large)


def test_verify_each_overhead_is_bounded(saxpy_mini_source):
    from repro.session import Session

    pipeline = "canonicalize,cse,canonicalize"
    compiled = Session(saxpy_mini_source).frontend().module

    def run(verify_each):
        PassManager.parse(pipeline, verify_each=verify_each).run(
            compiled.clone()
        )

    baseline = best_of(3, lambda: run(False))
    verified = best_of(3, lambda: run(True))
    # ISSUE bound: verify-at-every-boundary must stay under 2x the
    # unverified pipeline (plus a floor so sub-ms noise cannot fail it).
    assert verified < 2 * baseline + 0.005, (baseline, verified)


def test_gallery_compiles_never_walk_for_visibility(monkeypatch):
    from repro.ir import verifier
    from repro.session import Session
    from repro.workloads import get_workload, workload_names

    walks = []
    real = verifier._check_visibility

    def counted(op, operand, isolation_root):
        walks.append(op.name)
        return real(op, operand, isolation_root)

    monkeypatch.setattr(verifier, "_check_visibility", counted)
    for name in workload_names():
        Session(get_workload(name).source).program()
    assert walks == []

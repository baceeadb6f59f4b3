"""Pass manager, registry and instrumentation tests."""

import pytest

from repro.dialects import arith, builtin, func
from repro.ir import (
    Builder,
    Instrumentation,
    IRError,
    ModulePass,
    PassManager,
    PipelineParseError,
    get_pass_class,
    registered_passes,
)
from repro.ir.types import FunctionType


class AddConstantPass(ModulePass):
    name = "test-add-constant"

    def apply(self, module):
        fn = module.body.first_op
        Builder.at_start(fn.body).insert(arith.Constant.index(9))


class BreakingPass(ModulePass):
    name = "test-breaking"

    def apply(self, module):
        fn = module.body.first_op
        # produce invalid IR: terminator not last
        fn.body.add_op(arith.Constant.index(1))


def _module():
    module = builtin.ModuleOp()
    fn = func.FuncOp("f", FunctionType([], []))
    module.body.add_op(fn)
    fn.body.add_op(func.ReturnOp())
    return module


class TestPassManager:
    def test_runs_in_order(self):
        module = _module()
        pm = PassManager()
        pm.add(AddConstantPass(), AddConstantPass())
        pm.run(module)
        fn = module.body.first_op
        assert [op.name for op in fn.body.ops[:2]] == ["arith.constant"] * 2

    def test_verify_between_passes(self):
        module = _module()
        pm = PassManager(verify_each=True)
        pm.add(BreakingPass())
        with pytest.raises(IRError, match="test-breaking"):
            pm.run(module)

    def test_no_verify(self):
        module = _module()
        pm = PassManager(verify_each=False)
        pm.add(BreakingPass())
        pm.run(module)  # no exception: verification disabled

    def test_pass_names(self):
        pm = PassManager()
        pm.add(AddConstantPass())
        assert pm.pass_names == ["test-add-constant"]


class TestInstrumentation:
    def test_pass_traces_recorded(self):
        module = _module()
        instr = Instrumentation(capture_ir=True)
        pm = PassManager(instrumentation=instr)
        pm.add(AddConstantPass())
        pm.run(module)
        assert len(instr.pass_traces) == 1
        trace = instr.pass_traces[0]
        assert trace.pass_name == "test-add-constant"
        assert trace.duration_s >= 0
        assert "arith.constant" not in trace.ir_before
        assert "arith.constant" in trace.ir_after

    def test_no_ir_capture_by_default(self):
        module = _module()
        instr = Instrumentation()
        pm = PassManager(instrumentation=instr)
        pm.add(AddConstantPass())
        pm.run(module)
        assert instr.pass_traces[0].ir_before is None
        assert instr.pass_traces[0].ir_after is None

    def test_snapshots_and_counters(self):
        module = _module()
        instr = Instrumentation(capture_ir=True)
        instr.snapshot("initial", module)
        instr.count("builds")
        instr.count("builds", 2)
        assert instr.stage_names() == ["initial"]
        assert "func.func" in instr.stage("initial")
        assert instr.counters["builds"] == 3
        with pytest.raises(KeyError):
            instr.stage("no-such-stage")

    def test_snapshot_noop_without_capture(self):
        instr = Instrumentation()
        assert instr.snapshot("x", _module()) is None
        assert instr.snapshots == []


class TestRegistry:
    def test_registered_pipeline_passes(self):
        names = registered_passes()
        for expected in (
            "fir-to-core",
            "lower-omp-mapped-data",
            "lower-omp-target-region",
            "extract-device-module",
            "lower-omp-to-hls",
            "lower-hls-to-func",
            "canonicalize",
            "cse",
            "dce",
        ):
            assert expected in names

    def test_get_pass_instantiates(self):
        p = get_pass_class("canonicalize").from_options()
        assert p.name == "canonicalize"

    def test_get_pass_with_options(self):
        p = get_pass_class("lower-omp-to-hls").from_options(
            reduction_copies="4", simdlen=2
        )
        assert p.reduction_copies == 4
        assert p.simdlen == 2

    def test_get_unknown_raises(self):
        with pytest.raises(PipelineParseError, match="no-such-pass"):
            get_pass_class("no-such-pass")

    def test_parse_pipeline(self):
        pm = PassManager.parse("canonicalize, cse,dce")
        assert pm.pass_names == ["canonicalize", "cse", "dce"]

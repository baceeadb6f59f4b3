"""AMD HLS bridge tests: primitive mapping + LLVM-7 downgrade ([19])."""

import re

import pytest

from repro.backend.amd_hls import (
    _DOWNGRADES,
    SSDM_PRIMITIVES,
    downgrade_to_llvm7,
    map_to_amd_primitives,
    prepare_for_vitis,
)
from repro.session import Session
from repro.workloads import get_workload, workload_names


class TestPrimitiveMapping:
    def test_pipeline_mapped(self):
        ir = "call void @xlx_pipeline(i32 %v0)\ndeclare void @xlx_pipeline(i32)"
        mapped, used = map_to_amd_primitives(ir)
        assert "@_ssdm_op_SpecPipeline" in mapped
        assert "@xlx_pipeline" not in mapped
        assert "_ssdm_op_SpecPipeline" in used

    def test_all_symbols_have_primitives(self):
        for symbol, primitive in SSDM_PRIMITIVES.items():
            mapped, used = map_to_amd_primitives(f"call void @{symbol}()")
            assert primitive in mapped

    def test_unrelated_calls_untouched(self):
        ir = "call void @my_helper()"
        mapped, used = map_to_amd_primitives(ir)
        assert mapped == ir and used == []


class TestDowngrade:
    def test_fneg_rewritten(self):
        ir = "%1 = fneg float %0"
        assert "fsub float -0.0, %0" in downgrade_to_llvm7(ir)

    def test_freeze_rewritten(self):
        ir = "%1 = freeze i32 %0"
        out = downgrade_to_llvm7(ir)
        assert "freeze" not in out

    def test_fast_flags_expanded(self):
        ir = "%1 = fmul fast float %a, %b"
        assert "fmul nnan contract float" in downgrade_to_llvm7(ir)

    def test_source_filename_stripped(self):
        ir = 'source_filename = "x.mlir"\ndefine void @f() {\n}\n'
        assert "source_filename" not in downgrade_to_llvm7(ir)

    def test_every_spelling_in_one_text(self):
        ir = (
            "%1 = fneg double %0\n%2 = freeze float %1\n"
            "%3 = fadd fast float %a, %b\n%4 = fsub fast float %a, %b\n"
            "%5 = fdiv fast float %a, %b\n"
        )
        assert downgrade_to_llvm7(ir) == (
            "%1 = fsub double -0.0, %0\n%2 = add float 0, %1\n"
            "%3 = fadd nnan contract float %a, %b\n"
            "%4 = fsub nnan contract float %a, %b\n"
            "%5 = fdiv nnan contract float %a, %b\n"
        )


def _scan_every_pattern(llvm_ir: str) -> str:
    """The downgrade with each pattern run over the whole text."""
    text = re.sub(r"^source_filename = .*\n", "", llvm_ir, flags=re.MULTILINE)
    for _, pattern, replacement in _DOWNGRADES:
        text = pattern.sub(replacement, text)
    return text


@pytest.mark.parametrize("name", list(workload_names()))
def test_skipped_patterns_leave_gallery_ir_byte_identical(name):
    """A pattern is skipped only when its literal is absent, where it
    cannot match: each gallery kernel downgrades to the same bytes."""
    llvm_ir = Session(get_workload(name).source).program().bitstream.llvm_ir
    mapped, _ = map_to_amd_primitives(llvm_ir)
    assert downgrade_to_llvm7(mapped) == _scan_every_pattern(mapped)


class TestPrepareForVitis:
    def test_full_artifact(self):
        ir = (
            'source_filename = "d"\n'
            "define void @k(float* %a) {\n"
            "  call void @xlx_pipeline(i32 1)\n"
            "  %x = fmul fast float 1.0, 2.0\n"
            "  ret void\n}\n"
            "declare void @xlx_pipeline(i32)\n"
        )
        artifact = prepare_for_vitis(ir)
        assert artifact.llvm_version == 7
        assert "_ssdm_op_SpecPipeline" in artifact.llvm_ir
        assert "nnan contract" in artifact.llvm_ir
        # the precompiled runtime library is linked in
        assert "@ftn_rt_itof" in artifact.llvm_ir
        assert "@ftn_rt_stream_read" in artifact.llvm_ir
        assert artifact.primitives_used == ["_ssdm_op_SpecPipeline"]

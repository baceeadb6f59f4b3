"""Bridge to the AMD HLS backend (the work of reference [19]).

Two jobs, as in the paper:

1. **Primitive mapping** — the ``xlx_*`` runtime calls produced by
   *lower-hls-to-func* become AMD's bespoke ``_ssdm_op_*`` HLS LLVM-IR
   primitives that Vitis HLS's scheduler understands
   (``_ssdm_op_SpecPipeline``, ``_ssdm_op_SpecInterface``, ...).
2. **Downgrade to LLVM 7** — AMD's backend is frozen at LLVM 7, so the
   modern-IR features that Flang-era LLVM emits are rewritten into their
   LLVM-7 spellings.

Both are implemented as textual IR rewrites, exactly the level the [19]
tooling works at.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

#: xlx runtime symbol -> AMD HLS primitive
SSDM_PRIMITIVES = {
    "xlx_pipeline": "_ssdm_op_SpecPipeline",
    "xlx_unroll": "_ssdm_op_SpecLoopUnroll",
    "xlx_interface": "_ssdm_op_SpecInterface",
    "xlx_axi_protocol": "_ssdm_op_SpecPort",
    "xlx_stream_read": "_ssdm_op_Read.ap_fifo",
    "xlx_stream_write": "_ssdm_op_Write.ap_fifo",
}

#: Modern-IR constructs rewritten for LLVM 7 compatibility, each behind
#: a literal that every match contains: text without the literal is not
#: scanned (a greedy ``\S+`` match would start at every non-space char).
_DOWNGRADES: list[tuple[str, re.Pattern, str]] = [
    # fneg did not exist before LLVM 8.
    ("fneg", re.compile(r"(\S+) = fneg (float|double) (\S+)"),
     r"\1 = fsub \2 -0.0, \3"),
    # 'freeze' (LLVM 10+) drops to a move.
    ("freeze", re.compile(r"(\S+) = freeze (\S+) (\S+)"), r"\1 = add \2 0, \3"),
    # fast-math flag set spelled differently pre-8 (nnan+contract subset).
    ("fadd fast", re.compile(r"\bfadd fast\b"), "fadd nnan contract"),
    ("fsub fast", re.compile(r"\bfsub fast\b"), "fsub nnan contract"),
    ("fmul fast", re.compile(r"\bfmul fast\b"), "fmul nnan contract"),
    ("fdiv fast", re.compile(r"\bfdiv fast\b"), "fdiv nnan contract"),
]


@dataclass
class AmdHlsArtifact:
    """The LLVM-7 IR handed to the Vitis HLS backend."""

    llvm_ir: str
    primitives_used: list[str] = field(default_factory=list)
    llvm_version: int = 7


def map_to_amd_primitives(llvm_ir: str) -> tuple[str, list[str]]:
    """Replace ``xlx_*`` calls/declares with ``_ssdm_op_*`` primitives."""
    used = []
    text = llvm_ir
    for symbol, primitive in SSDM_PRIMITIVES.items():
        if f"@{symbol}" in text:
            used.append(primitive)
            text = text.replace(f"@{symbol}", f"@{primitive}")
    return text, used


def downgrade_to_llvm7(llvm_ir: str) -> str:
    """Rewrite modern LLVM-IR spellings to LLVM-7-compatible ones."""
    text = llvm_ir
    # LLVM 7 has no opaque pointers; our emitter already uses typed
    # pointers.  Strip source_filename (added in 3.9 but AMD's reader is
    # picky about interleaving) and pin the data layout AMD ships.
    text = re.sub(r'^source_filename = .*\n', "", text, flags=re.MULTILINE)
    for literal, pattern, replacement in _DOWNGRADES:
        if literal in text:
            text = pattern.sub(replacement, text)
    return text


def prepare_for_vitis(llvm_ir: str) -> AmdHlsArtifact:
    """Full [19] path: primitive mapping + LLVM-7 downgrade + runtime
    library linkage (the precompiled stream/conversion helpers)."""
    mapped, used = map_to_amd_primitives(llvm_ir)
    downgraded = downgrade_to_llvm7(mapped)
    linked = downgraded + _runtime_library_ir()
    return AmdHlsArtifact(llvm_ir=linked, primitives_used=used)


def _runtime_library_ir() -> str:
    """Precompiled runtime-library IR (data conversion + stream helpers)
    appended to every kernel, as the paper's flow links its runtime."""
    return (
        "\n; --- ftn runtime library (precompiled) ---\n"
        "define float @ftn_rt_itof(i32 %x) {\n"
        "  %r = sitofp i32 %x to float\n"
        "  ret float %r\n"
        "}\n"
        "define i32 @ftn_rt_ftoi(float %x) {\n"
        "  %r = fptosi float %x to i32\n"
        "  ret i32 %r\n"
        "}\n"
        "define double @ftn_rt_ftod(float %x) {\n"
        "  %r = fpext float %x to double\n"
        "  ret double %r\n"
        "}\n"
        "define float @ftn_rt_stream_read(float* %s) {\n"
        "  %v = load float, float* %s\n"
        "  ret float %v\n"
        "}\n"
        "define void @ftn_rt_stream_write(float* %s, float %v) {\n"
        "  store float %v, float* %s\n"
        "  ret void\n"
        "}\n"
    )

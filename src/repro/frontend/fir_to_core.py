"""FIR -> core-dialect lowering (the work of reference [3], Figure 1).

Rewrites the Flang-style FIR ops into ``memref``/``scf``/``arith``:

* ``fir.alloca`` -> ``memref.alloca``
* ``fir.declare`` -> forwarded (erased)
* ``fir.load``/``fir.store`` -> rank-0 ``memref.load``/``memref.store``
* ``fir.array_load``/``fir.array_store`` -> index_cast + subi(1) +
  ``memref.load``/``memref.store`` (Fortran 1-based -> 0-based, the
  ``arith.subi`` visible in the paper's Listing 4)
* ``fir.do_loop`` -> ``scf.for`` with ub+1 (inclusive -> exclusive)
* ``fir.if`` -> ``scf.if``; ``fir.result`` -> ``scf.yield``
* ``fir.convert`` -> the matching ``arith`` cast

``omp`` operations pass through untouched; ``fir.print`` survives as the
host I/O op (it is host-only and printed by the host code generator).
"""

from __future__ import annotations

from repro.dialects import arith, fir, memref, scf
from repro.ir.core import Operation, Region, SSAValue
from repro.ir.pass_manager import ModulePass, register_pass
from repro.ir.rewriting import (
    GreedyPatternRewriter,
    PatternRewriter,
    RewritePattern,
)
from repro.ir.types import (
    FloatType,
    IndexType,
    IntegerType,
    MemRefType,
    index,
)


class LowerAlloca(RewritePattern):
    op_name = "fir.alloca"

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> None:
        ty = op.results[0].type
        assert isinstance(ty, MemRefType)
        rewriter.replace_matched_op(memref.Alloca(ty, list(op.operands)))


class ForwardDeclare(RewritePattern):
    op_name = "fir.declare"

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> None:
        rewriter.replace_all_uses_with(op.results[0], op.operands[0])
        rewriter.erase_matched_op()


class LowerLoad(RewritePattern):
    op_name = "fir.load"

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> None:
        rewriter.replace_matched_op(memref.Load(op.operands[0], []))


class LowerStore(RewritePattern):
    op_name = "fir.store"

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> None:
        rewriter.replace_matched_op(memref.Store(op.operands[0], op.operands[1], []))


def _zero_based_indices(
    op: Operation, indices: tuple[SSAValue, ...], rewriter: PatternRewriter
) -> list[SSAValue]:
    """Convert Fortran 1-based i32 subscripts to 0-based index values."""
    one = arith.Constant.index(1)
    rewriter.insert_op_before_matched(one)
    result = []
    for idx in indices:
        if not isinstance(idx.type, IndexType):
            cast = arith.IndexCast(idx, index)
            rewriter.insert_op_before_matched(cast)
            idx = cast.results[0]
        sub = arith.SubI(idx, one.results[0])
        rewriter.insert_op_before_matched(sub)
        result.append(sub.results[0])
    return result


class LowerArrayLoad(RewritePattern):
    op_name = "fir.array_load"

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> None:
        indices = _zero_based_indices(op, op.operands[1:], rewriter)
        rewriter.replace_matched_op(memref.Load(op.operands[0], indices))


class LowerArrayStore(RewritePattern):
    op_name = "fir.array_store"

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> None:
        indices = _zero_based_indices(op, op.operands[2:], rewriter)
        rewriter.replace_matched_op(
            memref.Store(op.operands[0], op.operands[1], indices)
        )


class LowerDoLoop(RewritePattern):
    op_name = "fir.do_loop"

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> None:
        assert isinstance(op, fir.DoLoopOp)
        one = arith.Constant.index(1)
        ub_exclusive = arith.AddI(op.ub, one.results[0])
        rewriter.insert_op_before_matched(one, ub_exclusive)
        body: Region = op.regions[0]
        op.regions.remove(body)
        body.parent = None
        # Replace the fir.result terminator with scf.yield.
        block = body.block
        last = block.last_op
        if isinstance(last, fir.ResultOp):
            last.erase()
        block.add_op(scf.Yield())
        # The block (and its induction-variable argument, with name hint)
        # is transplanted wholesale into the scf.for.
        new_loop = scf.For(op.lb, ub_exclusive.results[0], op.step, body)
        rewriter.replace_matched_op(new_loop, new_results=[])


class LowerIf(RewritePattern):
    op_name = "fir.if"

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> None:
        then_region, else_region = op.regions[0], op.regions[1]
        op.regions.clear()
        then_region.parent = None
        else_region.parent = None
        for region in (then_region, else_region):
            block = region.block
            last = block.last_op
            if isinstance(last, fir.ResultOp):
                last.erase()
            block.add_op(scf.Yield())
        new_if = scf.If(op.operands[0], then_region, else_region)
        rewriter.replace_matched_op(new_if, new_results=[])


class LowerConvert(RewritePattern):
    op_name = "fir.convert"

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> None:
        source = op.operands[0]
        src, dst = source.type, op.results[0].type
        if src == dst:
            rewriter.replace_all_uses_with(op.results[0], source)
            rewriter.erase_matched_op()
            return
        new_op: Operation
        if isinstance(src, IndexType) and isinstance(dst, IntegerType):
            new_op = arith.IndexCast(source, dst)
        elif isinstance(src, IntegerType) and isinstance(dst, IndexType):
            new_op = arith.IndexCast(source, dst)
        elif isinstance(src, IntegerType) and isinstance(dst, FloatType):
            new_op = arith.SIToFP(source, dst)
        elif isinstance(src, IndexType) and isinstance(dst, FloatType):
            as_int = arith.IndexCast(source, IntegerType(64))
            rewriter.insert_op_before_matched(as_int)
            new_op = arith.SIToFP(as_int.results[0], dst)
        elif isinstance(src, FloatType) and isinstance(dst, IntegerType):
            new_op = arith.FPToSI(source, dst)
        elif isinstance(src, FloatType) and isinstance(dst, FloatType):
            new_op = (
                arith.ExtF(source, dst)
                if dst.width > src.width
                else arith.TruncF(source, dst)
            )
        elif isinstance(src, IntegerType) and isinstance(dst, IntegerType):
            new_op = (
                arith.ExtSI(source, dst)
                if dst.width > src.width
                else arith.TruncI(source, dst)
            )
        else:
            raise NotImplementedError(
                f"fir.convert {src.print()} -> {dst.print()}"
            )
        rewriter.replace_matched_op(new_op)


FIR_TO_CORE_PATTERNS = (
    LowerAlloca,
    ForwardDeclare,
    LowerLoad,
    LowerStore,
    LowerArrayLoad,
    LowerArrayStore,
    LowerDoLoop,
    LowerIf,
    LowerConvert,
)


@register_pass
class FirToCorePass(ModulePass):
    """Lower the FIR dialect (except host-only ``fir.print``) to core
    dialects."""

    name = "fir-to-core"

    def apply(self, module: Operation) -> None:
        patterns = [cls() for cls in FIR_TO_CORE_PATTERNS]
        GreedyPatternRewriter(patterns).rewrite(module)
        remaining = [
            op.name
            for op in module.walk()
            if op.name.startswith("fir.") and op.name != "fir.print"
        ]
        if remaining:
            raise NotImplementedError(
                f"fir-to-core left FIR ops behind: {sorted(set(remaining))}"
            )

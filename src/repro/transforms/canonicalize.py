"""Canonicalization, CSE and DCE.

The OpenMP-to-HLS transform "undertakes some simple canonicalisation to
remove dependencies between loop iterations" (paper §3); these passes are
that cleanup machinery: constant folding, algebraic identities, common
subexpression elimination and dead-code elimination of pure ops.
"""

from __future__ import annotations

from repro.dialects import arith
from repro.ir.attributes import FloatAttr, IntegerAttr
from repro.ir.core import Block, Operation, semantic_attributes
from repro.ir.pass_manager import ModulePass, register_pass
from repro.ir.rewriting import GreedyPatternRewriter, PatternRewriter, RewritePattern
from repro.ir.traits import ConstantLike, Pure
from repro.ir.types import IndexType, IntegerType


def _const_value(op: Operation) -> int | float | None:
    if op.name != "arith.constant":
        return None
    attr = op.attributes.get("value")
    if isinstance(attr, IntegerAttr):
        return attr.value
    if isinstance(attr, FloatAttr):
        return attr.value
    return None


def _operand_const(op: Operation, idx: int) -> int | float | None:
    from repro.ir.core import OpResult

    operand = op.operands[idx]
    if isinstance(operand, OpResult):
        return _const_value(operand.op)
    return None


_INT_FOLDS = {
    "arith.addi": lambda a, b: a + b,
    "arith.subi": lambda a, b: a - b,
    "arith.muli": lambda a, b: a * b,
    "arith.divsi": lambda a, b: int(a / b) if b else None,
    "arith.remsi": lambda a, b: int(a - b * int(a / b)) if b else None,
}


class FoldIntArith(RewritePattern):
    """Fold integer arithmetic with two constant operands."""

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> None:
        fold = _INT_FOLDS.get(op.name)
        if fold is None:
            return
        lhs, rhs = _operand_const(op, 0), _operand_const(op, 1)
        if lhs is None or rhs is None:
            return
        value = fold(int(lhs), int(rhs))
        if value is None:
            return
        ty = op.results[0].type
        if isinstance(ty, IndexType):
            const = arith.Constant.index(value)
        elif isinstance(ty, IntegerType):
            const = arith.Constant.int(value, ty.width)
        else:
            return
        rewriter.replace_matched_op(const)


class AlgebraicIdentity(RewritePattern):
    """x+0, x-0, x*1, x*0, x/1 simplifications (int/index only — FP
    identities are unsafe under rounding except trivial cases)."""

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> None:
        # replacements go through the rewriter so the worklist driver
        # re-enqueues the users migrated onto the replacement value
        if op.name in ("arith.addi", "arith.subi"):
            if _operand_const(op, 1) == 0:
                rewriter.replace_all_uses_with(op.results[0], op.operands[0])
                rewriter.erase_matched_op()
            elif op.name == "arith.addi" and _operand_const(op, 0) == 0:
                rewriter.replace_all_uses_with(op.results[0], op.operands[1])
                rewriter.erase_matched_op()
        elif op.name == "arith.muli":
            if _operand_const(op, 1) == 1:
                rewriter.replace_all_uses_with(op.results[0], op.operands[0])
                rewriter.erase_matched_op()
            elif _operand_const(op, 0) == 1:
                rewriter.replace_all_uses_with(op.results[0], op.operands[1])
                rewriter.erase_matched_op()
        elif op.name == "arith.divsi" and _operand_const(op, 1) == 1:
            rewriter.replace_all_uses_with(op.results[0], op.operands[0])
            rewriter.erase_matched_op()


class FoldIndexCastOfConstant(RewritePattern):
    """index_cast/extsi/trunci of a constant becomes a constant, so loop
    steps and unroll offsets are visible to the dependence analysis."""

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> None:
        if op.name not in ("arith.index_cast", "arith.extsi", "arith.trunci"):
            return
        value = _operand_const(op, 0)
        if value is None:
            return
        ty = op.results[0].type
        if isinstance(ty, IndexType):
            rewriter.replace_matched_op(arith.Constant.index(int(value)))
        elif isinstance(ty, IntegerType):
            rewriter.replace_matched_op(
                arith.Constant.int(int(value), ty.width)
            )


class DedupConstants(RewritePattern):
    """Merge identical constants within a block (a tiny block-local CSE
    kept as a pattern so canonicalize alone reaches a fixed point)."""

    op_name = "arith.constant"

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> None:
        block = op.parent
        if block is None:
            return
        for earlier in block.ops:
            if earlier is op:
                return
            if (
                earlier.name == "arith.constant"
                and semantic_attributes(earlier.attributes)
                == semantic_attributes(op.attributes)
                and earlier.results[0].type == op.results[0].type
            ):
                rewriter.replace_all_uses_with(
                    op.results[0], earlier.results[0]
                )
                rewriter.erase_matched_op()
                return


@register_pass
class CanonicalizePass(ModulePass):
    name = "canonicalize"

    def apply(self, module: Operation) -> None:
        patterns = [
            FoldIntArith(),
            AlgebraicIdentity(),
            FoldIndexCastOfConstant(),
            DedupConstants(),
        ]
        GreedyPatternRewriter(patterns).rewrite(module)
        DcePass().apply(module)


@register_pass
class DcePass(ModulePass):
    """Erase pure/constant ops whose results are unused (iteratively)."""

    name = "dce"

    def apply(self, module: Operation) -> None:
        changed = True
        while changed:
            changed = False
            for op in list(module.walk(reverse=True)):
                if op.parent is None:
                    continue
                if not op.results or any(r.has_uses for r in op.results):
                    continue
                if op.has_trait(Pure) or op.has_trait(ConstantLike):
                    op.erase()
                    changed = True


def _cse_key(op: Operation) -> tuple | None:
    if not op.has_trait(Pure) and not op.has_trait(ConstantLike):
        return None
    if op.regions:
        return None
    return (
        op.name,
        tuple(id(o) for o in op.operands),
        tuple(
            sorted(
                (k, v.print())
                for k, v in semantic_attributes(op.attributes).items()
            )
        ),
        tuple(r.type.print() for r in op.results),
    )


@register_pass
class CsePass(ModulePass):
    """Block-local common-subexpression elimination for pure ops."""

    name = "cse"

    def apply(self, module: Operation) -> None:
        for op in list(module.walk()):
            for region in op.regions:
                for block in region.blocks:
                    self._run_block(block)

    def _run_block(self, block: Block) -> None:
        seen: dict[tuple, Operation] = {}
        for op in list(block.ops):
            key = _cse_key(op)
            if key is None:
                continue
            if key in seen:
                existing = seen[key]
                for old, new in zip(op.results, existing.results):
                    old.replace_by(new)
                op.erase()
            else:
                seen[key] = op

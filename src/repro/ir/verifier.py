"""Structural and typed IR verification.

Structural checks: parent links, def-use consistency, dominance (within
single-block regions: defs precede uses), terminator placement and
per-op ``verify_`` hooks.  Typed checks (:func:`typed_check_op`):
operand/result element-type agreement on arith/math ops and memref rank
vs. subscript count on load/store — so a pass that builds ill-typed IR
fails at the pass boundary instead of as an interpreter crash.  Called by the pass
manager between passes when verification is enabled, and directly by
tests; the kernel checker (:mod:`repro.analysis`) reuses
:func:`typed_check_op` to report the same conditions as ``TYPE``
diagnostics with source locations.

:func:`verify` is one descent that carries the set of values visible at
each op: the arguments and already-verified results of every enclosing
block, restarted empty under an ``IsolatedFromAbove`` op.  An operand
found in the set is defined earlier in its own block or in an enclosing
one, so it passes dominance and visibility in one lookup.  An op with
an operand outside the set, or a broken use record, replays the rules
in their order (:func:`_check_operands`), where only a miss runs the
dominance test and the walk up the enclosing blocks
(:func:`_check_visibility`).  Those rules alone decide, so a fault
fails with the same message on the same op as the rules would, and the
uses they accept stay accepted: a value of an enclosing block defined
after the region's op, an op's own result inside its region, and any
value defined above the op ``verify`` was called on.
"""

from __future__ import annotations

from typing import Sequence

from repro.ir.core import (
    Block,
    BlockArgument,
    IRError,
    Operation,
    OpResult,
    SSAValue,
)
from repro.ir.traits import IsolatedFromAbove, IsTerminator
from repro.ir.types import MemRefType


class VerificationError(IRError):
    """Raised when the IR is structurally or type invalid."""


def verify(op: Operation) -> None:
    """Verify ``op`` and everything nested within it."""
    _verify_ops((op,), None, set(), op)


def _verify_ops(
    ops: Sequence[Operation],
    block: Block | None,
    visible: set[SSAValue],
    isolation_root: Operation,
) -> None:
    """Verify ``ops``, the ops of ``block``, and descend into their
    regions.  ``visible`` holds the values in scope: this block's
    arguments and each op's results join it as the walk passes them and
    leave it again on the way back up, so nothing defined here is in
    scope after the block.  ``block`` is None for the root op, which has
    no block to be checked against."""
    if block is not None:
        scoped = [arg for arg in block.args if arg.block is block]
        visible.update(scoped)
    last = len(ops) - 1
    for position, op in enumerate(ops):
        name = op.name
        if block is not None and op.parent is not block:
            raise VerificationError(f"{name}: op parent link broken")
        # Fast path: every operand is in scope and its Use object sits
        # at its recorded position in the value's use list (O(1) per
        # operand, where scanning ``operand.uses`` would be quadratic on
        # high-fanout values).  Anything else takes the rule-order path.
        operands = op._operands
        operand_uses = op._operand_uses
        cleared = len(operands) == len(operand_uses)
        if cleared:
            for index, operand in enumerate(operands):
                use = operand_uses[index]
                uses = operand.uses
                pos = use.pos
                if (
                    operand not in visible
                    or use.operation is not op
                    or use.index != index
                    or not 0 <= pos < len(uses)
                    or uses[pos] is not use
                ):
                    cleared = False
                    break
        if not cleared:
            _check_operands(
                op, block, position == last, visible, isolation_root
            )
        elif (
            block is not None
            and position != last
            and op.has_trait(IsTerminator)
        ):
            raise VerificationError(
                f"{name}: terminator is not the last op in its block"
            )
        # Result forward references.
        results = op.results
        for result in results:
            if result.op is not op:
                raise VerificationError(f"{name}: result owner link broken")
            for use in result.uses:
                user_operands = use.operation._operands
                if use.index >= len(user_operands) or (
                    user_operands[use.index] is not result
                ):
                    raise VerificationError(
                        f"{name}: stale use record on result"
                    )
        # Type agreement.
        typed_check = _TYPED_CHECKS.get(name)
        if typed_check is not None:
            typed = typed_check(op)
            if typed is not None:
                code, message = typed
                raise VerificationError(f"{name}: [{code}] {message}")
        # Region structure.
        if op.regions:
            if op.has_trait(IsolatedFromAbove):
                inner_visible, inner_root = set(), op
            else:
                inner_visible, inner_root = visible, isolation_root
            for region in op.regions:
                if region.parent is not op:
                    raise VerificationError(
                        f"{name}: region parent link broken"
                    )
                for inner in region.blocks:
                    if inner.parent is not region:
                        raise VerificationError("block parent link broken")
                    _verify_ops(inner.ops, inner, inner_visible, inner_root)
        op.verify_()
        if block is not None and results:
            visible.update(results)
            scoped.extend(results)
    if block is not None:
        visible.difference_update(scoped)


def _check_operands(
    op: Operation,
    block: Block | None,
    is_last: bool,
    visible: set[SSAValue],
    isolation_root: Operation,
) -> None:
    """The operand rules in order, for an op the fast path did not clear:
    same-block dominance, terminator placement, use bookkeeping, then
    per operand its back-reference and, unless in scope, visibility."""
    name = op.name
    operands = op._operands
    if block is not None:
        for operand in operands:
            # every earlier result of this block is in ``visible``
            if (
                operand not in visible
                and isinstance(operand, OpResult)
                and operand.op.parent is block
            ):
                raise VerificationError(
                    f"{name}: use of value before its definition"
                )
        if not is_last and op.has_trait(IsTerminator):
            raise VerificationError(
                f"{name}: terminator is not the last op in its block"
            )
    operand_uses = op._operand_uses
    if len(operands) != len(operand_uses):
        raise VerificationError(
            f"{name}: operand/use bookkeeping length mismatch"
        )
    for index, (operand, use) in enumerate(zip(operands, operand_uses)):
        pos = use.pos
        if (
            use.operation is not op
            or use.index != index
            or not 0 <= pos < len(operand.uses)
            or operand.uses[pos] is not use
        ):
            raise VerificationError(
                f"{name}: operand {index} missing back-reference use"
            )
        if operand not in visible:
            _check_visibility(op, operand, isolation_root)


def _check_visibility(
    op: Operation, operand, isolation_root: Operation
) -> None:
    """Operands must be defined in an enclosing region of ``op`` and must
    not cross an ``IsolatedFromAbove`` boundary."""
    if isinstance(operand, OpResult):
        definer = operand.op.parent
    elif isinstance(operand, BlockArgument):
        definer = operand.block
    else:  # pragma: no cover - defensive
        return
    if definer is None:
        raise VerificationError(
            f"{op.name}: operand defined by a detached op/block"
        )
    if op is isolation_root and op.parent is None:
        # Verifying a detached subtree: cannot reason about the root's own
        # operands, accept them.
        return
    # Walk up the enclosing-block chain; the defining block must appear
    # before any IsolatedFromAbove boundary is crossed.
    block = op.parent
    while block is not None:
        if block is definer:
            return
        parent_op = block.parent.parent if block.parent else None
        if parent_op is None:
            break
        if parent_op.has_trait(IsolatedFromAbove):
            raise VerificationError(
                f"{op.name}: operand crosses IsolatedFromAbove boundary "
                f"({parent_op.name})"
            )
        if parent_op is isolation_root:
            # Above a non-isolated verification root we cannot see
            # definitions; accept the use.
            return
        block = parent_op.parent
    raise VerificationError(
        f"{op.name}: operand is not visible from its use site"
    )


# ---------------------------------------------------------------------------
# Typed verification
# ---------------------------------------------------------------------------

#: Elementwise ops whose operands and results must all share one type.
_UNIFORM_TYPE_OPS = frozenset(
    {
        "arith.addi", "arith.subi", "arith.muli", "arith.divsi",
        "arith.remsi", "arith.andi", "arith.ori", "arith.xori",
        "arith.minsi", "arith.maxsi",
        "arith.addf", "arith.subf", "arith.mulf", "arith.divf",
        "arith.minimumf", "arith.maximumf",
        "math.sqrt", "math.absf", "math.exp", "math.log",
        "math.sin", "math.cos", "math.powf",
    }
)

TypedFinding = tuple[str, str] | None


def typed_check_op(op: Operation) -> TypedFinding:
    """Type-agreement check for one op: ``(rule code, message)`` or None.

    Rule codes mirror :data:`repro.analysis.diagnostics.RULES`:

    * ``TYPE001`` — operand/result element types disagree on an
      arith/math op (including ``arith.select``'s value legs);
    * ``TYPE002`` — memref rank vs. subscript count (and element type)
      on ``memref.load``/``memref.store``.
    """
    check = _TYPED_CHECKS.get(op.name)
    return None if check is None else check(op)


def _check_uniform(op: Operation) -> TypedFinding:
    values = op._operands + op.results
    if not values:
        return None
    first = values[0].type
    for value in values:
        # types compare structurally, but most share one canonical object
        if value.type is not first and value.type != first:
            types = {v.type for v in values}
            rendered = ", ".join(sorted(t.print() for t in types))
            return (
                "TYPE001",
                f"operands/results of {op.name} must share one type, "
                f"found {rendered}",
            )
    return None


def _check_select(op: Operation) -> TypedFinding:
    if len(op.operands) == 3:
        _, lhs, rhs = op.operands
        types = {lhs.type, rhs.type} | {r.type for r in op.results}
        if len(types) > 1:
            rendered = ", ".join(sorted(t.print() for t in types))
            return (
                "TYPE001",
                "value legs and result of arith.select must share one "
                f"type, found {rendered}",
            )
    return None


def _check_load(op: Operation) -> TypedFinding:
    if not op.operands:
        return None
    memref_type = op.operands[0].type
    if not isinstance(memref_type, MemRefType):
        return (
            "TYPE002",
            f"memref.load base is {memref_type.print()}, not a memref",
        )
    rank = len(memref_type.shape)
    subscripts = len(op.operands) - 1
    if subscripts != rank:
        return (
            "TYPE002",
            f"memref.load of rank-{rank} {memref_type.print()} takes "
            f"{rank} subscripts, got {subscripts}",
        )
    if not op.results:
        return None
    result_type = op.results[0].type
    element_type = memref_type.element_type
    if result_type is not element_type and result_type != element_type:
        return (
            "TYPE002",
            f"memref.load result {result_type.print()} does not "
            f"match element type {element_type.print()}",
        )
    return None


def _check_store(op: Operation) -> TypedFinding:
    if len(op.operands) < 2:
        return None
    memref_type = op.operands[1].type
    if not isinstance(memref_type, MemRefType):
        return (
            "TYPE002",
            f"memref.store base is {memref_type.print()}, not a memref",
        )
    rank = len(memref_type.shape)
    subscripts = len(op.operands) - 2
    if subscripts != rank:
        return (
            "TYPE002",
            f"memref.store to rank-{rank} {memref_type.print()} takes "
            f"{rank} subscripts, got {subscripts}",
        )
    value_type = op.operands[0].type
    element_type = memref_type.element_type
    if value_type is not element_type and value_type != element_type:
        return (
            "TYPE002",
            f"memref.store value {value_type.print()} does not "
            f"match element type {element_type.print()}",
        )
    return None


#: op name -> its typed check; ops not listed have none.
_TYPED_CHECKS = {
    **dict.fromkeys(_UNIFORM_TYPE_OPS, _check_uniform),
    "arith.select": _check_select,
    "memref.load": _check_load,
    "memref.store": _check_store,
}

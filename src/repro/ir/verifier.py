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
"""

from __future__ import annotations

from repro.ir.core import (
    Block,
    BlockArgument,
    IRError,
    Operation,
    OpResult,
    Region,
)
from repro.ir.traits import IsolatedFromAbove, IsTerminator
from repro.ir.types import MemRefType


class VerificationError(IRError):
    """Raised when the IR is structurally or type invalid."""


def verify(op: Operation) -> None:
    """Verify ``op`` and everything nested within it."""
    _verify_op(op, isolation_root=op)


def _verify_op(op: Operation, isolation_root: Operation) -> None:
    # Operand def-use back references.  Each operand's registered Use
    # object is checked directly against the value's use list via its
    # stored position — O(1) per operand, where scanning ``operand.uses``
    # is O(#uses) and quadratic on high-fanout values (a loop bound used
    # by thousands of ops pays its whole use list per user, per pass
    # boundary when ``verify_each`` is on).
    operands = op._operands
    operand_uses = op._operand_uses
    if len(operands) != len(operand_uses):
        raise VerificationError(
            f"{op.name}: operand/use bookkeeping length mismatch"
        )
    for index, (operand, use) in enumerate(zip(operands, operand_uses)):
        pos = use.pos
        if (
            use.operation is not op
            or use.index != index
            or pos < 0
            or pos >= len(operand.uses)
            or operand.uses[pos] is not use
        ):
            raise VerificationError(
                f"{op.name}: operand {index} missing back-reference use"
            )
        _check_visibility(op, operand, isolation_root)
    # Result forward references.
    for result in op.results:
        if result.op is not op:
            raise VerificationError(f"{op.name}: result owner link broken")
        for use in result.uses:
            if use.index >= len(use.operation.operands) or (
                use.operation.operands[use.index] is not result
            ):
                raise VerificationError(
                    f"{op.name}: stale use record on result"
                )
    # Type agreement.
    typed = typed_check_op(op)
    if typed is not None:
        code, message = typed
        raise VerificationError(f"{op.name}: [{code}] {message}")
    # Region structure.
    child_root = op if op.has_trait(IsolatedFromAbove) else isolation_root
    for region in op.regions:
        if region.parent is not op:
            raise VerificationError(f"{op.name}: region parent link broken")
        _verify_region(region, child_root)
    op.verify_()


def _verify_region(region: Region, isolation_root: Operation) -> None:
    for block in region.blocks:
        if block.parent is not region:
            raise VerificationError("block parent link broken")
        _verify_block(block, isolation_root)


def _verify_block(block: Block, isolation_root: Operation) -> None:
    seen: set[OpResult] = set()
    for position, op in enumerate(block.ops):
        if op.parent is not block:
            raise VerificationError(f"{op.name}: op parent link broken")
        # Same-block dominance: operands defined in this block must be
        # defined earlier.
        for operand in op.operands:
            if isinstance(operand, OpResult) and operand.op.parent is block:
                if operand not in seen:
                    raise VerificationError(
                        f"{op.name}: use of value before its definition"
                    )
        for result in op.results:
            seen.add(result)
        if op.has_trait(IsTerminator) and position != len(block.ops) - 1:
            raise VerificationError(
                f"{op.name}: terminator is not the last op in its block"
            )
        _verify_op(op, isolation_root)


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


def typed_check_op(op: Operation) -> tuple[str, str] | None:
    """Type-agreement check for one op: ``(rule code, message)`` or None.

    Rule codes mirror :data:`repro.analysis.diagnostics.RULES`:

    * ``TYPE001`` — operand/result element types disagree on an
      arith/math op (including ``arith.select``'s value legs);
    * ``TYPE002`` — memref rank vs. subscript count (and element type)
      on ``memref.load``/``memref.store``.
    """
    name = op.name
    if name in _UNIFORM_TYPE_OPS:
        types = {o.type for o in op.operands} | {r.type for r in op.results}
        if len(types) > 1:
            rendered = ", ".join(sorted(t.print() for t in types))
            return (
                "TYPE001",
                f"operands/results of {name} must share one type, "
                f"found {rendered}",
            )
        return None
    if name == "arith.select":
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
    if name == "memref.load":
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
        if op.results and op.results[0].type != memref_type.element_type:
            return (
                "TYPE002",
                f"memref.load result {op.results[0].type.print()} does not "
                f"match element type {memref_type.element_type.print()}",
            )
        return None
    if name == "memref.store":
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
        if op.operands[0].type != memref_type.element_type:
            return (
                "TYPE002",
                f"memref.store value {op.operands[0].type.print()} does not "
                f"match element type {memref_type.element_type.print()}",
            )
        return None
    return None

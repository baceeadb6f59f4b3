"""Insertion-point based IR builder.

A :class:`Builder` tracks where the next operation is inserted.  It is the
standard way frontend lowerings and transforms create IR::

    builder = Builder.at_end(block)
    c0 = builder.insert(arith.Constant.index(0)).results[0]
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, TypeVar

from repro.ir.attributes import IntegerAttr
from repro.ir.core import LOC_ATTR, Block, IRError, Operation, Region, SSAValue

OpT = TypeVar("OpT", bound=Operation)


@dataclass
class InsertPoint:
    """A position inside a block: before ``anchor`` or at the block's end."""

    block: Block
    anchor: Operation | None = None  # insert before this op; None = at end

    @staticmethod
    def at_end(block: Block) -> "InsertPoint":
        return InsertPoint(block, None)

    @staticmethod
    def at_start(block: Block) -> "InsertPoint":
        return InsertPoint(block, block.first_op)

    @staticmethod
    def before(op: Operation) -> "InsertPoint":
        if op.parent is None:
            raise IRError("operation has no parent block")
        return InsertPoint(op.parent, op)

    @staticmethod
    def after(op: Operation) -> "InsertPoint":
        if op.parent is None:
            raise IRError("operation has no parent block")
        idx = op.parent.index_of(op)
        ops = op.parent.ops
        anchor = ops[idx + 1] if idx + 1 < len(ops) else None
        return InsertPoint(op.parent, anchor)


class Builder:
    """Inserts operations at a movable insertion point.

    When :attr:`loc` is set to a positive source line, every inserted op
    that does not already carry a ``loc`` attribute is stamped with it —
    the frontend lowering sets this at each statement/expression dispatch
    so diagnostics can point at the originating Fortran line.
    """

    def __init__(self, insert_point: InsertPoint):
        self.insert_point = insert_point
        self.loc: int = 0

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def at_end(block: Block) -> "Builder":
        return Builder(InsertPoint.at_end(block))

    @staticmethod
    def at_start(block: Block) -> "Builder":
        return Builder(InsertPoint.at_start(block))

    @staticmethod
    def before(op: Operation) -> "Builder":
        return Builder(InsertPoint.before(op))

    @staticmethod
    def after(op: Operation) -> "Builder":
        return Builder(InsertPoint.after(op))

    # -- insertion ------------------------------------------------------------

    def insert(self, op: OpT) -> OpT:
        """Insert ``op`` at the current point and return it."""
        block = self.insert_point.block
        anchor = self.insert_point.anchor
        if anchor is None:
            block.add_op(op)
        else:
            block.insert_op_before(op, anchor)
        if self.loc > 0 and LOC_ATTR not in op.attributes:
            op.attributes[LOC_ATTR] = IntegerAttr.i64(self.loc)
        return op

    # -- movement -------------------------------------------------------------

    def goto_start(self, block: Block) -> None:
        self.insert_point = InsertPoint.at_start(block)

    def goto_after(self, op: Operation) -> None:
        self.insert_point = InsertPoint.after(op)

    @property
    def block(self) -> Block:
        return self.insert_point.block


def build_region(
    arg_types: Sequence = (),
) -> tuple[Region, Block, Builder]:
    """Create a single-block region plus a builder positioned in it."""
    region = Region.with_block(arg_types)
    block = region.block
    return region, block, Builder.at_end(block)


def inline_block_before(block: Block, anchor: Operation, arg_values: Sequence[SSAValue]) -> None:
    """Inline all ops of ``block`` before ``anchor``, substituting args.

    The block must not be used afterwards; its arguments are replaced by
    ``arg_values``.
    """
    if len(arg_values) != len(block.args):
        raise IRError(
            f"inline_block_before: expected {len(block.args)} argument "
            f"values, got {len(arg_values)}"
        )
    for arg, value in zip(block.args, arg_values):
        arg.replace_by(value)
    ops = list(block.ops)
    for op in ops:
        op.detach()
    anchor.parent.insert_ops_before(ops, anchor)  # type: ignore[union-attr]

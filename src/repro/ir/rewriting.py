"""Pattern rewriting infrastructure.

:class:`RewritePattern` subclasses implement ``match_and_rewrite`` and are
applied to a fixed point by :class:`GreedyPatternRewriter`.  The driver is
worklist-based: patterns are indexed by their ``op_name`` filter, and the
module is walked exactly once at the start — not once per fixed-point
iteration.  After a rewrite the driver queues only the ops it may have
affected: each inserted op with the ops nested in it (a moved region
brings its ops along), and alone the users of replacement values, the
defs of erased operands and the matched op when it is still attached.
Divergence is bounded by :data:`MAX_REWRITES_PER_OP`.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

from repro.ir.attributes import IntegerAttr
from repro.ir.builder import Builder, InsertPoint
from repro.ir.core import (
    LOC_ATTR,
    IRError,
    Operation,
    OpResult,
    SSAValue,
    invalidate_analysis,
)

#: The divergence bound: a rewrite run may make this many rewrites per
#: op of the seeded module (plus a little slack for tiny modules) before
#: the driver raises.  The gallery's compiles make at most ~0.6 per op.
MAX_REWRITES_PER_OP = 64


class PatternRewriter:
    """Mutation API handed to patterns; records whether anything changed
    and which ops the worklist driver must revisit.

    Ops inserted through the rewriter inherit the matched op's ``loc``
    attribute (when they don't carry one already), so source locations
    survive lowering rewrites.
    """

    def __init__(self, current_op: Operation):
        self.current_op = current_op
        self.changed = False
        #: ops inserted by this rewrite: the driver re-enqueues each with
        #: the ops nested in it
        self.inserted_ops: list[Operation] = []
        #: other ops (possibly) affected by this rewrite, re-enqueued alone
        self.affected_ops: list[Operation] = []
        # built on the first insertion: most pattern tries match nothing
        self._builder: Builder | None = None

    def _matched_builder(self) -> Builder:
        """The builder that inserts before the matched op and stamps its
        ``loc``."""
        if self._builder is None:
            self._builder = Builder(InsertPoint.before(self.current_op))
            loc = self.current_op.attributes.get(LOC_ATTR)
            if isinstance(loc, IntegerAttr):
                self._builder.loc = loc.value
        return self._builder

    def _stamp_loc(self, op: Operation) -> None:
        loc = self._matched_builder().loc
        if loc > 0 and LOC_ATTR not in op.attributes:
            op.attributes[LOC_ATTR] = IntegerAttr.i64(loc)

    # -- insertion --------------------------------------------------------------

    def insert_op_before_matched(self, *ops: Operation) -> None:
        builder = self._matched_builder()
        for op in ops:
            builder.insert(op)
        self.inserted_ops.extend(ops)
        self.changed = bool(ops) or self.changed

    def insert_op_after_matched(self, *ops: Operation) -> None:
        if not ops:
            return
        anchor = self.current_op
        block = anchor.parent
        index = block.index_of(anchor)  # type: ignore[union-attr]
        for op in ops:
            block.insert_op_after(op, anchor, anchor_index=index)  # type: ignore[union-attr]
            self._stamp_loc(op)
            anchor = op
            index += 1
        self.inserted_ops.extend(ops)
        self.changed = True

    # -- replacement --------------------------------------------------------------

    def _note_operand_defs(self, op: Operation) -> None:
        """Queue the defs of ``op``'s operands: erasing a use may expose
        dead code or new match opportunities at the producer."""
        for operand in op.operands:
            if isinstance(operand, OpResult):
                self.affected_ops.append(operand.op)

    def replace_matched_op(
        self,
        new_ops: Operation | Sequence[Operation],
        new_results: Sequence[SSAValue | None] | None = None,
    ) -> None:
        """Replace the matched op with ``new_ops``.

        ``new_results`` defaults to the results of the last new op.  ``None``
        entries mean the corresponding old result must be unused.
        """
        if isinstance(new_ops, Operation):
            new_ops = [new_ops]
        self.insert_op_before_matched(*new_ops)
        if new_results is None:
            new_results = list(new_ops[-1].results) if new_ops else []
        if len(new_results) != len(self.current_op.results):
            raise IRError(
                f"replace_matched_op: expected {len(self.current_op.results)} "
                f"replacement values, got {len(new_results)}"
            )
        self._note_operand_defs(self.current_op)
        for old, new in zip(self.current_op.results, new_results):
            if new is None:
                if old.has_uses:
                    raise IRError(
                        "replacement value is None but old result has uses"
                    )
                continue
            old.replace_by(new)
            # users migrated onto the new value may now match patterns
            for use in new.uses:
                self.affected_ops.append(use.operation)
        self.current_op.erase()
        self.changed = True

    def erase_matched_op(self) -> None:
        self._note_operand_defs(self.current_op)
        self.current_op.erase()
        self.changed = True

    def replace_all_uses_with(self, old: SSAValue, new: SSAValue) -> None:
        old.replace_by(new)
        for use in new.uses:
            self.affected_ops.append(use.operation)
        self.changed = True


class RewritePattern:
    """Base class for rewrite patterns.

    ``match_and_rewrite`` mutates the IR through ``rewriter`` when the
    pattern applies, otherwise leaves it untouched.  All mutation must go
    through the :class:`PatternRewriter` methods (in particular use
    ``rewriter.replace_all_uses_with``, not ``SSAValue.replace_by``): the
    worklist driver revisits only the ops those methods record, so a
    bypassed mutation can leave a match undiscovered.
    """

    #: Optional op-name filter; the driver indexes patterns by it so an op
    #: only sees the patterns that can match it.
    op_name: str | None = None

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> None:
        raise NotImplementedError


class GreedyPatternRewriter:
    """Applies a set of patterns until no more changes occur.

    Worklist driver: the root is walked once to seed the queue; afterwards
    only ops touched by a rewrite are revisited.  A run that makes more
    than :data:`MAX_REWRITES_PER_OP` rewrites per seeded op raises
    :class:`~repro.ir.core.IRError`.
    """

    def __init__(self, patterns: Iterable[RewritePattern]):
        self.patterns = list(patterns)
        #: op_name -> applicable patterns (filtered + generic, in original
        #: relative order), built lazily
        self._by_name: dict[str, list[RewritePattern]] = {}

    def _patterns_for(self, op_name: str) -> list[RewritePattern]:
        cached = self._by_name.get(op_name)
        if cached is None:
            cached = self._by_name[op_name] = [
                p
                for p in self.patterns
                if p.op_name is None or p.op_name == op_name
            ]
        return cached

    def rewrite(self, root: Operation) -> bool:
        """Run to fixed point. Returns True if anything changed."""
        worklist: deque[Operation] = deque()
        queued: set[int] = set()

        def enqueue(op: Operation) -> None:
            if id(op) not in queued:
                queued.add(id(op))
                worklist.append(op)

        for op in root.walk():
            if op is not root:
                enqueue(op)

        budget = MAX_REWRITES_PER_OP * (len(queued) + 8)
        rewrites = 0
        changed_any = False
        while worklist:
            op = worklist.popleft()
            queued.discard(id(op))
            if op.parent is None or op is root:
                continue  # erased/detached, or the root itself
            for pattern in self._patterns_for(op.name):
                rewriter = PatternRewriter(op)
                pattern.match_and_rewrite(op, rewriter)
                if rewriter.changed:
                    changed_any = True
                    rewrites += 1
                    if rewrites > budget:
                        raise IRError(
                            "greedy rewriter did not converge in "
                            f"{budget} rewrites"
                        )
                    for inserted in rewriter.inserted_ops:
                        if inserted.parent is not None:
                            for nested in inserted.walk():
                                enqueue(nested)
                    for affected in rewriter.affected_ops:
                        if affected.parent is not None:
                            enqueue(affected)
                    if op.parent is not None:
                        enqueue(op)  # still attached: may match again
                    break  # the op may be gone; take it from the queue
        if changed_any:
            invalidate_analysis(root)
        return changed_any

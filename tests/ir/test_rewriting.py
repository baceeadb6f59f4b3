"""Pattern rewriting driver tests."""

import pytest

from repro.dialects import arith, builtin, func, scf
from repro.ir import (
    Builder,
    GreedyPatternRewriter,
    IRError,
    Operation,
    PatternRewriter,
    RewritePattern,
    verify,
)
from repro.ir.attributes import IntegerAttr
from repro.ir.core import LOC_ATTR
from repro.ir.rewriting import MAX_REWRITES_PER_OP
from repro.ir.types import FunctionType


def _module():
    module = builtin.ModuleOp()
    fn = func.FuncOp("f", FunctionType([], []))
    module.body.add_op(fn)
    return module, Builder.at_end(fn.body)


class MulByTwoToAdd(RewritePattern):
    """x * 2 -> x + x."""

    op_name = "arith.muli"

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> None:
        from repro.ir.attributes import IntegerAttr
        from repro.ir.core import OpResult

        rhs = op.operands[1]
        if not isinstance(rhs, OpResult) or rhs.op.name != "arith.constant":
            return
        attr = rhs.op.attributes["value"]
        if not isinstance(attr, IntegerAttr) or attr.value != 2:
            return
        rewriter.replace_matched_op(arith.AddI(op.operands[0], op.operands[0]))


class TestGreedyDriver:
    def test_applies_pattern(self):
        module, b = _module()
        x = b.insert(arith.Constant.int(5, 32)).results[0]
        two = b.insert(arith.Constant.int(2, 32)).results[0]
        mul = b.insert(arith.MulI(x, two))
        sink = b.insert(arith.AddI(mul.results[0], x))
        b.insert(func.ReturnOp())
        changed = GreedyPatternRewriter([MulByTwoToAdd()]).rewrite(module)
        assert changed
        names = [op.name for op in module.walk()]
        assert "arith.muli" not in names
        verify(module)
        # sink now consumes the new add
        assert sink.operands[0].op.name == "arith.addi"

    def test_no_match_no_change(self):
        module, b = _module()
        x = b.insert(arith.Constant.int(5, 32)).results[0]
        three = b.insert(arith.Constant.int(3, 32)).results[0]
        b.insert(arith.MulI(x, three))
        b.insert(func.ReturnOp())
        assert not GreedyPatternRewriter([MulByTwoToAdd()]).rewrite(module)

    def test_fixpoint_cascade(self):
        """(x*2)*2 requires two iterations to fully rewrite."""
        module, b = _module()
        x = b.insert(arith.Constant.int(5, 32)).results[0]
        two = b.insert(arith.Constant.int(2, 32)).results[0]
        m1 = b.insert(arith.MulI(x, two))
        b.insert(arith.MulI(m1.results[0], two))
        b.insert(func.ReturnOp())
        GreedyPatternRewriter([MulByTwoToAdd()]).rewrite(module)
        assert not [op for op in module.walk() if op.name == "arith.muli"]

    def test_non_convergence_detected(self):
        """A pattern that never converges is stopped by the constant
        bound: the first rewrite past MAX_REWRITES_PER_OP per seeded op
        (plus slack) raises."""

        class Flipper(RewritePattern):
            op_name = "arith.addi"
            rewrites = 0

            def match_and_rewrite(self, op, rewriter):
                self.rewrites += 1
                rewriter.replace_matched_op(
                    arith.AddI(op.operands[1], op.operands[0])
                )

        module, b = _module()
        x = b.insert(arith.Constant.int(1, 32)).results[0]
        y = b.insert(arith.Constant.int(2, 32)).results[0]
        b.insert(arith.AddI(x, y))
        b.insert(func.ReturnOp())
        seeded = sum(1 for op in module.walk() if op is not module)
        flipper = Flipper()
        with pytest.raises(IRError, match="converge"):
            GreedyPatternRewriter([flipper]).rewrite(module)
        assert flipper.rewrites == MAX_REWRITES_PER_OP * (seeded + 8) + 1


class _Marker(Operation):
    name = "test.marker"


class TestRequeue:
    """After a rewrite the driver queues an affected op that the rewrite
    did not insert on its own, not with the ops nested in it."""

    def test_a_redirected_loop_requeues_only_the_loop(self):
        module, b = _module()
        lb = b.insert(arith.Constant.index(0)).results[0]
        ub = b.insert(arith.Constant.index(4)).results[0]
        wider = b.insert(arith.Constant.index(8)).results[0]
        step = b.insert(arith.Constant.index(1)).results[0]
        loop = b.insert(scf.For(lb, ub, step))
        body = Builder.at_end(loop.body)
        body.insert(arith.AddI(loop.induction_var, loop.induction_var))
        body.insert(scf.Yield())
        b.insert(_Marker())
        b.insert(func.ReturnOp())

        class Redirect(RewritePattern):
            op_name = "test.marker"

            def match_and_rewrite(self, op, rewriter):
                rewriter.replace_all_uses_with(ub, wider)
                rewriter.erase_matched_op()

        offered = []

        class Record(RewritePattern):
            def match_and_rewrite(self, op, rewriter):
                offered.append(op)

        GreedyPatternRewriter([Redirect(), Record()]).rewrite(module)
        assert loop.ub is wider
        assert offered.count(loop) == 2  # seeded, then redirected
        for op in loop.body.ops:
            assert offered.count(op) == 1, op.name


class TestPatternRewriterApi:
    def test_replace_arity_mismatch(self):
        module, b = _module()
        b.insert(arith.Constant.int(1, 32))
        b.insert(func.ReturnOp())

        class Bad(RewritePattern):
            op_name = "arith.constant"

            def match_and_rewrite(self, op, rewriter):
                rewriter.replace_matched_op(func.ReturnOp(), new_results=[])

        with pytest.raises(IRError):
            GreedyPatternRewriter([Bad()]).rewrite(module)

    def test_insert_after_matched(self):
        module, b = _module()
        b.insert(arith.Constant.int(1, 32))
        b.insert(func.ReturnOp())

        inserted = []

        class After(RewritePattern):
            op_name = "arith.constant"

            def match_and_rewrite(self, op, rewriter):
                if inserted:
                    return
                new = arith.Constant.int(9, 32)
                inserted.append(new)
                rewriter.insert_op_after_matched(new)

        GreedyPatternRewriter([After()]).rewrite(module)
        fn = module.body.first_op
        assert fn.body.ops[1] is inserted[0]

    def test_erase_matched(self):
        module, b = _module()
        b.insert(arith.Constant.int(1, 32))
        b.insert(func.ReturnOp())

        class EraseConst(RewritePattern):
            op_name = "arith.constant"

            def match_and_rewrite(self, op, rewriter):
                if not op.results[0].has_uses:
                    rewriter.erase_matched_op()

        GreedyPatternRewriter([EraseConst()]).rewrite(module)
        assert not [op for op in module.walk() if op.name == "arith.constant"]


class TestLocStamp:
    """Ops a pattern inserts take the matched op's ``loc`` unless they
    carry their own; the rewriter builds its insertion builder only when
    a pattern inserts."""

    def _module_with_loc(self, line):
        module, b = _module()
        b.loc = line
        x = b.insert(arith.Constant.int(5, 32)).results[0]
        two = b.insert(arith.Constant.int(2, 32)).results[0]
        mul = b.insert(arith.MulI(x, two))
        b.insert(arith.AddI(mul.results[0], x))
        b.loc = 0
        b.insert(func.ReturnOp())
        return module

    def _locs(self, module, name):
        return [
            op.attributes.get(LOC_ATTR)
            for op in module.walk()
            if op.name == name
        ]

    def test_replacement_takes_the_matched_loc(self):
        module = self._module_with_loc(42)
        GreedyPatternRewriter([MulByTwoToAdd()]).rewrite(module)
        assert self._locs(module, "arith.addi") == [
            IntegerAttr.i64(42), IntegerAttr.i64(42)
        ]

    def test_insert_after_takes_the_matched_loc(self):
        module = self._module_with_loc(7)
        inserted = []

        class After(RewritePattern):
            op_name = "arith.muli"

            def match_and_rewrite(self, op, rewriter):
                if inserted:
                    return
                own = arith.Constant.int(8, 32)
                own.attributes[LOC_ATTR] = IntegerAttr.i64(3)
                inserted.extend([arith.Constant.int(9, 32), own])
                rewriter.insert_op_after_matched(*inserted)

        GreedyPatternRewriter([After()]).rewrite(module)
        assert [op.attributes[LOC_ATTR] for op in inserted] == [
            IntegerAttr.i64(7), IntegerAttr.i64(3)
        ]
        block = inserted[0].parent
        mul = block.ops[block.index_of(inserted[0]) - 1]
        assert mul.name == "arith.muli"

    def test_no_loc_on_the_matched_op_stamps_none(self):
        module = self._module_with_loc(0)
        GreedyPatternRewriter([MulByTwoToAdd()]).rewrite(module)
        assert self._locs(module, "arith.addi") == [None, None]

    def test_a_try_that_inserts_nothing_builds_no_builder(self):
        module = self._module_with_loc(42)
        seen = []

        class Look(RewritePattern):
            op_name = "arith.muli"

            def match_and_rewrite(self, op, rewriter):
                seen.append(rewriter)

        GreedyPatternRewriter([Look()]).rewrite(module)
        assert seen and all(r._builder is None for r in seen)

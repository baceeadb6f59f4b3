"""Unit tests for the core IR structures (def-use, erasure, cloning...)."""

import pytest

from repro.dialects import arith, builtin, func, scf
from repro.ir import Block, Builder, IRError, Region, default_context
from repro.ir.core import Operation
from repro.ir.traits import (
    ConstantLike,
    IsolatedFromAbove,
    IsTerminator,
    MemoryRead,
    Pure,
)
from repro.ir.types import FunctionType, index, f32


def _two_constants():
    block = Block()
    a = block.add_op(arith.Constant.index(1))
    b = block.add_op(arith.Constant.index(2))
    return block, a, b


class TestDefUse:
    def test_operand_records_use(self):
        block, a, _ = _two_constants()
        add = block.add_op(arith.AddI(a.results[0], a.results[0]))
        assert len(a.results[0].uses) == 2
        assert all(u.operation is add for u in a.results[0].uses)

    def test_replace_by(self):
        block, a, b = _two_constants()
        add = block.add_op(arith.AddI(a.results[0], a.results[0]))
        a.results[0].replace_by(b.results[0])
        assert not a.results[0].has_uses
        assert add.operands == (b.results[0], b.results[0])
        assert len(b.results[0].uses) == 2

    def test_replace_by_self_is_noop(self):
        block, a, _ = _two_constants()
        block.add_op(arith.AddI(a.results[0], a.results[0]))
        a.results[0].replace_by(a.results[0])
        assert len(a.results[0].uses) == 2

    def test_set_operand(self):
        block, a, b = _two_constants()
        add = block.add_op(arith.AddI(a.results[0], a.results[0]))
        add.set_operand(1, b.results[0])
        assert add.operands[1] is b.results[0]
        assert len(a.results[0].uses) == 1
        assert len(b.results[0].uses) == 1

    def test_single_use(self):
        block, a, b = _two_constants()
        add = block.add_op(arith.AddI(a.results[0], b.results[0]))
        assert a.results[0].single_use.operation is add
        block.add_op(arith.AddI(a.results[0], b.results[0]))
        assert a.results[0].single_use is None


class TestErasure:
    def test_erase_with_uses_raises(self):
        block, a, _ = _two_constants()
        block.add_op(arith.AddI(a.results[0], a.results[0]))
        with pytest.raises(IRError):
            a.erase()

    def test_erase_unsafe(self):
        block, a, _ = _two_constants()
        add = block.add_op(arith.AddI(a.results[0], a.results[0]))
        add.erase()
        a.erase()
        assert a not in block.ops

    def test_erase_drops_operand_uses(self):
        block, a, b = _two_constants()
        add = block.add_op(arith.AddI(a.results[0], b.results[0]))
        add.erase()
        assert not a.results[0].has_uses
        assert not b.results[0].has_uses

    def test_detach_keeps_op_alive(self):
        block, a, _ = _two_constants()
        a.detach()
        assert a.parent is None
        assert a not in block.ops
        assert a.results[0].type == index


class TestStructure:
    def test_parent_links(self):
        module = builtin.ModuleOp()
        fn = func.FuncOp("f", FunctionType([], []))
        module.body.add_op(fn)
        assert fn.parent is module.body
        assert fn.parent_op is module

    def test_get_parent_of_type(self):
        module = builtin.ModuleOp()
        fn = func.FuncOp("f", FunctionType([], []))
        module.body.add_op(fn)
        b = Builder.at_end(fn.body)
        c = b.insert(arith.Constant.index(0))
        assert c.get_parent_of_type(func.FuncOp) is fn
        assert c.get_parent_of_type(builtin.ModuleOp) is module

    def test_is_ancestor_of(self):
        module = builtin.ModuleOp()
        fn = func.FuncOp("f", FunctionType([], []))
        module.body.add_op(fn)
        c = Builder.at_end(fn.body).insert(arith.Constant.index(0))
        assert module.is_ancestor_of(c)
        assert not c.is_ancestor_of(module)

    def test_add_attached_block_raises(self):
        region = Region([Block()])
        with pytest.raises(IRError):
            Region([region.block])

    def test_region_single_block_accessor(self):
        region = Region([Block(), Block()])
        with pytest.raises(IRError):
            region.block

    def test_insert_before_after(self):
        block, a, b = _two_constants()
        c = arith.Constant.index(3)
        block.insert_op_before(c, b)
        assert block.ops == [a, c, b]
        d = arith.Constant.index(4)
        block.insert_op_after(d, a)
        assert block.ops == [a, d, c, b]

    def test_block_args(self):
        block = Block([index, f32])
        assert [a.type for a in block.args] == [index, f32]
        arg = block.add_arg(index)
        assert arg.index == 2
        block.erase_arg(arg)
        assert len(block.args) == 2


class TestWalk:
    def test_walk_preorder(self, vadd_module):
        names = [op.name for op in vadd_module.walk()]
        assert names[0] == "builtin.module"
        assert names[1] == "func.func"
        assert "scf.for" in names
        assert names.index("scf.for") < names.index("memref.store")

    def test_walk_reverse(self, vadd_module):
        forward = [op.name for op in vadd_module.walk()]
        backward = [op.name for op in vadd_module.walk(reverse=True)]
        # reverse visits nested ops in reverse order within a parent;
        # first element is still the root (pre-order)
        assert backward[0] == "builtin.module"
        assert set(forward) == set(backward)

    def test_walk_type(self, vadd_module):
        fors = list(vadd_module.walk_type(scf.For))
        assert len(fors) == 1


class TestClone:
    def test_clone_remaps_internal_values(self, vadd_module):
        clone = vadd_module.clone()
        originals = set(id(op) for op in vadd_module.walk())
        for op in clone.walk():
            assert id(op) not in originals
            for operand in op.operands:
                owner = operand.owner_block()
                assert owner is not None

    def test_clone_preserves_semantics(self, vadd_module):
        import numpy as np

        from repro.ir import Interpreter, verify

        clone = vadd_module.clone()
        verify(clone)
        x = np.arange(16, dtype=np.float32)
        y = np.ones(16, dtype=np.float32)
        Interpreter(clone).call("vadd", x, y)
        assert np.allclose(y, np.arange(16) + 1)

    def test_clone_keeps_external_operands(self):
        block = Block()
        c = block.add_op(arith.Constant.index(1))
        add = block.add_op(arith.AddI(c.results[0], c.results[0]))
        clone = add.clone()
        assert clone.operands[0] is c.results[0]


class TestContext:
    def test_default_context_registers_all(self):
        ctx = default_context()
        for name in ("builtin.module", "arith.addf", "scf.for",
                     "memref.load", "omp.target", "device.alloc",
                     "hls.pipeline", "fir.do_loop"):
            assert ctx.get_op(name) is not None

    def test_unknown_op(self):
        assert default_context().get_op("nope.nope") is None



class _Exit(IsTerminator):
    """A trait that refines IsTerminator."""


class TestTraits:
    def test_trait_base_class_is_present(self):
        class ExitOp(Operation):
            name = "test.exit"
            traits = (_Exit, Pure)

        op = ExitOp()
        assert op.has_trait(_Exit)
        assert op.has_trait(IsTerminator)
        assert op.has_trait(Pure)
        assert not op.has_trait(IsolatedFromAbove)
        assert not op.has_trait(ConstantLike)

    def test_subclass_inherits_or_replaces_traits(self):
        class Base(Operation):
            name = "test.base"
            traits = (Pure,)

        class Inherits(Base):
            name = "test.inherits"

        class Replaces(Base):
            name = "test.replaces"
            traits = (MemoryRead,)

        assert Inherits().has_trait(Pure)
        assert Replaces().has_trait(MemoryRead)
        assert not Replaces().has_trait(Pure)

    def test_op_without_traits(self):
        assert not Operation().has_trait(IsTerminator)
        assert not arith.Constant.index(0).has_trait(IsTerminator)
        assert func.ReturnOp().has_trait(IsTerminator)

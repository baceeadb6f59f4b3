"""The verifier's contract: every message it raises, and the uses it accepts.

``test_verifier.py`` covers dominance, terminators, isolation and one
broken use record.  This file pins the rest of the structural checks,
each by its exact message on the op that carries the fault, and three
uses that the verifier accepts because its visibility rule walks the
enclosing blocks, not the ops before the use:

* a value from an enclosing block defined *after* the region's op;
* an op's own result used inside its region;
* ``verify(op)`` on a subtree that uses values defined above it.

The fault-injection tests capture each gallery module at every
verification of its compile (frontend, then before and after each
pass), inject one fault, and check the exact message and op.
"""

import pytest

from repro.dialects import arith, builtin, func, scf
from repro.ir import Builder, VerificationError, verify
from repro.ir.core import (
    Block,
    BlockArgument,
    OpResult,
    Operation,
    Region,
    Use,
)
from repro.ir.traits import IsolatedFromAbove, IsTerminator
from repro.ir.types import FunctionType, index
from repro.session import Session
from repro.workloads import get_workload, workload_names


def _func_body():
    module = builtin.ModuleOp()
    fn = func.FuncOp("f", FunctionType([], []))
    module.body.add_op(fn)
    return module, fn, Builder.at_end(fn.body)


def _raises(op, message):
    with pytest.raises(VerificationError) as info:
        verify(op)
    assert str(info.value) == message


class _RegionOp(Operation):
    """A non-isolated op with one single-block region and one result."""

    name = "test.region"

    def __init__(self):
        super().__init__(result_types=[index], regions=[Region.with_block()])

    @property
    def body(self):
        return self.regions[0].block


class TestMessages:
    def test_operand_not_visible_from_a_sibling_region(self):
        then_region, else_region = Region.with_block(), Region.with_block()
        c = then_region.block.add_op(arith.Constant.index(1))
        use = else_region.block.add_op(arith.AddI(c.results[0], c.results[0]))
        cond = arith.Constant.bool(True)
        scf.If(cond.results[0], then_region, else_region)
        _raises(use, "arith.addi: operand is not visible from its use site")

    def test_operand_defined_by_a_detached_op(self):
        module, _, b = _func_body()
        detached = arith.Constant.index(1)
        b.insert(arith.AddI(detached.results[0], detached.results[0]))
        b.insert(func.ReturnOp())
        _raises(module, "arith.addi: operand defined by a detached op/block")

    def test_operand_defined_by_a_detached_block(self):
        module, _, b = _func_body()
        loose = Block([index])
        b.insert(arith.AddI(loose.args[0], loose.args[0]))
        b.insert(func.ReturnOp())
        loose.args[0].block = None
        _raises(module, "arith.addi: operand defined by a detached op/block")

    def test_op_parent_link_broken(self):
        module, fn, b = _func_body()
        b.insert(arith.Constant.index(1))
        b.insert(func.ReturnOp())
        fn.body.ops[0].parent = None
        _raises(module, "arith.constant: op parent link broken")

    def test_region_parent_link_broken(self):
        module, fn, b = _func_body()
        b.insert(func.ReturnOp())
        fn.regions[0].parent = None
        _raises(module, "func.func: region parent link broken")

    def test_block_parent_link_broken(self):
        module, fn, b = _func_body()
        b.insert(func.ReturnOp())
        fn.body.parent = None
        _raises(module, "block parent link broken")

    def test_operand_use_length_mismatch(self):
        module, _, b = _func_body()
        c = b.insert(arith.Constant.index(1))
        add = b.insert(arith.AddI(c.results[0], c.results[0]))
        b.insert(func.ReturnOp())
        add._operand_uses.pop()
        _raises(module, "arith.addi: operand/use bookkeeping length mismatch")

    def test_operand_missing_back_reference(self):
        module, _, b = _func_body()
        c = b.insert(arith.Constant.index(1))
        add = b.insert(arith.AddI(c.results[0], c.results[0]))
        b.insert(func.ReturnOp())
        add._operand_uses[1].pos = 7
        _raises(module, "arith.addi: operand 1 missing back-reference use")

    def test_stale_use_record_on_result(self):
        module, _, b = _func_body()
        c = b.insert(arith.Constant.index(1))
        b.insert(arith.AddI(c.results[0], c.results[0]))
        ret = b.insert(func.ReturnOp())
        # a use record naming an operand slot ``ret`` does not have
        c.results[0].uses.append(Use(ret, 0))
        _raises(module, "arith.constant: stale use record on result")

    def test_result_owner_link_broken(self):
        module, _, b = _func_body()
        c = b.insert(arith.Constant.index(1))
        other = arith.Constant.index(2)
        b.insert(func.ReturnOp())
        c.results[0].op = other
        _raises(module, "arith.constant: result owner link broken")

    def test_block_argument_of_another_block_is_not_visible(self):
        module, fn, b = _func_body()
        region_op = b.insert(_RegionOp())
        b.insert(func.ReturnOp())
        stray = BlockArgument(index, Block(), 0)
        region_op.body.args.append(stray)
        inner = Builder.at_end(region_op.body)
        inner.insert(arith.AddI(stray, stray))
        _raises(
            module,
            "arith.addi: operand crosses IsolatedFromAbove boundary (func.func)",
        )


    def test_region_value_used_after_the_region_op(self):
        module, fn, b = _func_body()
        region_op = b.insert(_RegionOp())
        inner = Builder.at_end(region_op.body).insert(arith.Constant.index(2))
        b.insert(arith.AddI(inner.results[0], inner.results[0]))
        b.insert(func.ReturnOp())
        _raises(
            module,
            "arith.addi: operand crosses IsolatedFromAbove boundary (func.func)",
        )

    def test_then_value_used_in_the_else_region(self):
        module, fn, b = _func_body()
        cond = b.insert(arith.Constant.bool(True)).results[0]
        branch = b.insert(scf.If(cond))
        c = Builder.at_end(branch.then_block).insert(arith.Constant.index(1))
        Builder.at_end(branch.else_block).insert(
            arith.AddI(c.results[0], c.results[0])
        )
        b.insert(func.ReturnOp())
        _raises(
            module,
            "arith.addi: operand crosses IsolatedFromAbove boundary (func.func)",
        )


class TestAcceptedUses:
    def test_enclosing_value_defined_after_the_region_op(self):
        module, fn, b = _func_body()
        region_op = b.insert(_RegionOp())
        later = b.insert(arith.Constant.index(3))
        b.insert(func.ReturnOp())
        inner = Builder.at_end(region_op.body)
        inner.insert(arith.AddI(later.results[0], later.results[0]))
        verify(module)

    def test_own_result_used_inside_the_region(self):
        module, fn, b = _func_body()
        region_op = b.insert(_RegionOp())
        b.insert(func.ReturnOp())
        own = region_op.results[0]
        Builder.at_end(region_op.body).insert(arith.AddI(own, own))
        verify(module)

    def test_subtree_uses_values_defined_above_it(self):
        module, fn, b = _func_body()
        c0 = b.insert(arith.Constant.index(0)).results[0]
        c4 = b.insert(arith.Constant.index(4)).results[0]
        c1 = b.insert(arith.Constant.index(1)).results[0]
        loop = b.insert(scf.For(c0, c4, c1))
        inner = Builder.at_end(loop.body)
        inner.insert(arith.AddI(c4, loop.body.args[0]))
        inner.insert(scf.Yield())
        b.insert(func.ReturnOp())
        verify(module)
        verify(loop)
        verify(loop.body.ops[0])

    def test_subtree_root_operand_defined_after_it(self):
        module, fn, b = _func_body()
        region_op = b.insert(_RegionOp())
        late = b.insert(arith.Constant.index(3))
        use = b.insert(arith.AddI(late.results[0], late.results[0]))
        b.insert(func.ReturnOp())
        use.detach()
        fn.body.insert_op_before(use, region_op)
        verify(use)  # a root's own operands get no dominance check
        _raises(module, "arith.addi: use of value before its definition")


# ---------------------------------------------------------------------------
# Fault injection over the gallery's pipeline stages
# ---------------------------------------------------------------------------


def _stage_modules(monkeypatch, name):
    """A clone of ``name``'s module at each verification of its compile."""
    import repro.frontend.driver as driver
    import repro.ir.pass_manager as pass_manager

    captured = []
    real = pass_manager.verify

    def capture(op):
        captured.append(op.clone())
        real(op)

    monkeypatch.setattr(driver, "verify", capture)
    monkeypatch.setattr(pass_manager, "verify", capture)
    Session(get_workload(name).source).program()
    monkeypatch.undo()
    return captured


def _blocks(module):
    for op in module.walk():
        for region in op.regions:
            yield from region.blocks


def _spread(sites, count=3):
    """Up to ``count`` sites spread over ``sites`` (first, middle, last)."""
    if len(sites) <= count:
        return sites
    step = (len(sites) - 1) / (count - 1)
    return [sites[round(k * step)] for k in range(count)]


def _swap_sites(module):
    """(def, first direct user in its block) pairs."""
    sites = []
    for block in _blocks(module):
        first_use = {}
        for op in block.ops:
            for operand in op.operands:
                if isinstance(operand, OpResult) and operand.op.parent is block:
                    first_use.setdefault(operand.op, op)
        sites.extend(first_use.items())
    return sites


def _terminator_sites(module):
    """(terminator, op before it) pairs; the terminator uses no result
    of the op it moves above."""
    sites = []
    for block in _blocks(module):
        if len(block.ops) < 2 or not block.ops[-1].has_trait(IsTerminator):
            continue
        term, before = block.ops[-1], block.ops[-2]
        if not any(
            isinstance(o, OpResult) and o.op is before for o in term.operands
        ):
            sites.append((term, before))
    return sites


def _nearest_isolated(op):
    parent = op.parent_op
    while not parent.has_trait(IsolatedFromAbove):
        parent = parent.parent_op
    return parent


def _defining_op(value):
    block = value.op.parent if isinstance(value, OpResult) else value.block
    return block.parent.parent


def _first_user(isolated):
    """The first op below ``isolated`` with operands and no isolated op
    in between."""
    for op in isolated.walk():
        if op is not isolated and op.operands:
            if _nearest_isolated(op) is isolated:
                return op
    return None


def _first_outside(values, isolated, spare):
    for value in values:
        if not isolated.is_ancestor_of(_defining_op(value)):
            return value
    return spare


def _repoint_sites(module, spare):
    """(user, outside value, isolated op) for each isolated op below the
    module: its first nested user, re-pointed to the first value defined
    outside it (``spare`` when the module has none, as in a device
    module holding one kernel)."""
    values = []
    for op in module.walk():
        values.extend(op.results)
        for region in op.regions:
            for block in region.blocks:
                values.extend(block.args)
    sites = []
    for isolated in module.walk():
        if isolated is module or not isolated.has_trait(IsolatedFromAbove):
            continue
        user = _first_user(isolated)
        if user is not None:
            sites.append((user, _first_outside(values, isolated, spare), isolated))
    return sites


@pytest.mark.parametrize("name", list(workload_names()))
def test_injected_faults_fail_on_the_faulty_op(monkeypatch, name):
    stages = _stage_modules(monkeypatch, name)
    assert len(stages) == 11
    for module in stages:
        verify(module)
        injected = {"swap": 0, "terminator": 0, "repoint": 0}
        for definer, user in _spread(_swap_sites(module)):
            block = definer.parent
            index = block.index_of(definer)
            definer.detach()
            block.insert_op_after(definer, user)
            _raises(module, f"{user.name}: use of value before its definition")
            definer.detach()
            block.ops.insert(index, definer)
            definer.parent = block
            injected["swap"] += 1
        for term, before in _spread(_terminator_sites(module)):
            block = term.parent
            term.detach()
            block.insert_op_before(term, before)
            _raises(
                module,
                f"{term.name}: terminator is not the last op in its block",
            )
            term.detach()
            block.add_op(term)
            injected["terminator"] += 1
        spare = arith.Constant.index(0)
        sites = _repoint_sites(module, spare.results[0])
        module.body.insert_op_before(spare, module.body.ops[0])
        for user, outside, isolated in sites:
            old = user.operands[0]
            user.set_operand(0, outside)
            _raises(
                module,
                f"{user.name}: operand crosses IsolatedFromAbove boundary "
                f"({isolated.name})",
            )
            user.set_operand(0, old)
            injected["repoint"] += 1
        spare.erase()
        verify(module)
        assert min(injected.values()) >= 1, injected

"""SCF dialect: structured control flow (``scf.for``, ``scf.if``...)."""

from __future__ import annotations

from typing import Sequence

from repro.ir.attributes import IntegerAttr
from repro.ir.core import Block, Dialect, IRError, Operation, Region, SSAValue
from repro.ir.interpreter import Interpreter, Yielded, impl
from repro.ir.traits import IsTerminator
from repro.ir.types import TypeAttribute, index


class Yield(Operation):
    """Terminator yielding values to the enclosing structured op."""

    name = "scf.yield"
    traits = (IsTerminator,)

    def __init__(self, values: Sequence[SSAValue] = ()):
        super().__init__(operands=values)


class For(Operation):
    """``scf.for %iv = %lb to %ub step %step iter_args(...)``.

    The body block receives ``[iv, *iter_args]``; the op returns the final
    iteration values.  The upper bound is exclusive (MLIR semantics).
    """

    name = "scf.for"

    def __init__(
        self,
        lb: SSAValue,
        ub: SSAValue,
        step: SSAValue,
        iter_args: Sequence[SSAValue] = (),
        body: Region | None = None,
    ):
        if body is None:
            body = Region(
                [Block([index] + [v.type for v in iter_args])]
            )
        super().__init__(
            operands=[lb, ub, step, *iter_args],
            result_types=[v.type for v in iter_args],
            regions=[body],
        )

    @property
    def lb(self) -> SSAValue:
        return self.operands[0]

    @property
    def ub(self) -> SSAValue:
        return self.operands[1]

    @property
    def step(self) -> SSAValue:
        return self.operands[2]

    @property
    def iter_args(self) -> tuple[SSAValue, ...]:
        return self.operands[3:]

    @property
    def body(self) -> Block:
        return self.regions[0].block

    @property
    def induction_var(self) -> SSAValue:
        return self.body.args[0]

    def verify_(self) -> None:
        body = self.regions[0].block
        if len(body.args) != 1 + len(self.iter_args):
            raise IRError(
                "scf.for body must have induction variable plus one arg per "
                "iter_arg"
            )
        last = body.last_op
        if last is None or not isinstance(last, Yield):
            raise IRError("scf.for body must end with scf.yield")
        if len(last.operands) != len(self.results):
            raise IRError(
                "scf.for yield arity does not match op results"
            )


class If(Operation):
    """``scf.if`` with then/else regions, optionally yielding values."""

    name = "scf.if"

    def __init__(
        self,
        cond: SSAValue,
        result_types: Sequence[TypeAttribute] = (),
        then_region: Region | None = None,
        else_region: Region | None = None,
    ):
        then_region = then_region or Region([Block()])
        else_region = else_region or Region([Block()])
        super().__init__(
            operands=[cond],
            result_types=result_types,
            regions=[then_region, else_region],
        )

    @property
    def cond(self) -> SSAValue:
        return self.operands[0]

    @property
    def then_block(self) -> Block:
        return self.regions[0].block

    @property
    def else_block(self) -> Block:
        return self.regions[1].block


class While(Operation):
    """``scf.while`` with a "before" (condition) and "after" (body) region.

    The before region terminates with ``scf.condition``; the after region
    with ``scf.yield``.
    """

    name = "scf.while"

    def __init__(
        self,
        init_args: Sequence[SSAValue],
        result_types: Sequence[TypeAttribute],
        before: Region,
        after: Region,
    ):
        super().__init__(
            operands=init_args,
            result_types=result_types,
            regions=[before, after],
        )


class Condition(Operation):
    """Terminator of the before-region of ``scf.while``."""

    name = "scf.condition"
    traits = (IsTerminator,)

    def __init__(self, cond: SSAValue, args: Sequence[SSAValue] = ()):
        super().__init__(operands=[cond, *args])


class Parallel(Operation):
    """``scf.parallel`` — a parallel loop nest (used after some
    auto-parallelisation flows; semantically a for loop here)."""

    name = "scf.parallel"

    def __init__(
        self,
        lbs: Sequence[SSAValue],
        ubs: Sequence[SSAValue],
        steps: Sequence[SSAValue],
        body: Region | None = None,
    ):
        n = len(lbs)
        if body is None:
            body = Region([Block([index] * n)])
        super().__init__(
            operands=[*lbs, *ubs, *steps],
            regions=[body],
            attributes={"num_dims": IntegerAttr.i64(n)},
        )


Scf = Dialect("scf", [Yield, For, If, While, Condition, Parallel])


# -- interpreter implementations ---------------------------------------------------


@impl("scf.yield")
def _run_yield(interp: Interpreter, op: Operation, env: dict):
    return Yielded(tuple(interp.operand_values(op, env)))


@impl("scf.for")
def _run_for(interp: Interpreter, op: Operation, env: dict):
    values = interp.operand_values(op, env)
    lb, ub, step = values[0], values[1], values[2]
    carried = list(values[3:])
    observer = interp.loop_observer
    if observer is not None:
        observer(op, max(0, -(-(ub - lb) // step)) if step > 0 else 0, 1)
    if interp.vectorize:
        from repro.ir.vectorize import (
            try_vectorized_loop,
            try_vectorized_nest,
            try_vectorized_reduction,
        )

        if not carried and try_vectorized_loop(interp, op, env, lb, ub, step):
            interp.set_results(op, env, [])
            return None
        if not carried and try_vectorized_nest(interp, op, env, lb, ub, step):
            interp.set_results(op, env, [])
            return None
        finals = try_vectorized_reduction(interp, op, env, lb, ub, step)
        if finals is not None:
            interp.set_results(op, env, finals)
            return None
    body = op.regions[0].block
    iv = lb
    while iv < ub:
        signal = interp.run_block(body, env, [iv, *carried])
        if not isinstance(signal, Yielded):
            raise IRError("scf.for body did not yield")
        carried = list(signal.values)
        iv += step
    interp.set_results(op, env, carried)
    return None


@impl("scf.if")
def _run_if(interp: Interpreter, op: Operation, env: dict):
    (cond,) = (interp.get(env, op.operands[0]),)
    region = op.regions[0] if cond else op.regions[1]
    block = region.block
    if not block.ops:
        interp.set_results(op, env, [])
        return None
    signal = interp.run_block(block, env, [])
    if isinstance(signal, Yielded):
        interp.set_results(op, env, list(signal.values))
    else:
        interp.set_results(op, env, [])
    return None


@impl("scf.while")
def _run_while(interp: Interpreter, op: Operation, env: dict):
    carried = interp.operand_values(op, env)
    before = op.regions[0].block
    after = op.regions[1].block
    while True:
        signal = interp.run_block(before, env, carried)
        if not isinstance(signal, Yielded):
            raise IRError("scf.while before-region did not produce condition")
        cond, *args = signal.values
        if not cond:
            interp.set_results(op, env, list(args))
            return None
        signal = interp.run_block(after, env, args)
        if not isinstance(signal, Yielded):
            raise IRError("scf.while after-region did not yield")
        carried = list(signal.values)


@impl("scf.condition")
def _run_condition(interp: Interpreter, op: Operation, env: dict):
    return Yielded(tuple(interp.operand_values(op, env)))


# -- compiled-form emitters ---------------------------------------------------
#
# Structured control flow compiles to native Python loops/branches around
# compiled block bodies.  Loop closures invoke ``interp.loop_observer``
# (cycle accounting) and the vectorized fast paths exactly like the
# scalar ``_run_for`` does, and keep step accounting identical: one step
# for the structured op plus the per-iteration body op count.

from repro.ir.compile import CannotCompile, FnCompiler, compiled_for


def _single_block(op: Operation, region_index: int) -> Block:
    regions = op.regions
    if region_index >= len(regions) or len(regions[region_index].blocks) != 1:
        raise CannotCompile(op.name)
    return regions[region_index].blocks[0]


def _observed_trips(lb, ub, step) -> int:
    return max(0, -(-(ub - lb) // step)) if step > 0 else 0


@compiled_for("scf.for", counts_own_steps=True)
def _emit_for(op: Operation, ctx: FnCompiler):
    from repro.ir.interpreter import InterpreterError
    from repro.ir.vectorize import loop_vector_mode, try_vectorized_reduction

    body = _single_block(op, 0)
    last = body.ops[-1] if body.ops else None
    if last is None or last.name != "scf.yield":
        raise CannotCompile("scf.for body does not end in scf.yield")
    if len(last.operands) != len(op.results):
        raise CannotCompile("scf.for yield arity mismatch")

    lb_i, ub_i, st_i = (ctx.slot(o) for o in op.operands[:3])
    iter_slots = tuple(ctx.slot_list(op.operands[3:]))
    iv_slot = ctx.slot(body.args[0])
    arg_slots = tuple(ctx.slot_list(body.args[1:]))
    res_slots = tuple(ctx.slot_list(op.results))
    yld_slots = tuple(ctx.slot_list(last.operands))
    body_run = ctx.compile_body(body.ops, allow_terminators=("scf.yield",))

    try:
        mode, _ = loop_vector_mode(op)
        crashed = False
    except Exception:  # noqa: BLE001 - degrade this loop, not the function
        # A planner crash must not take the whole function off the JIT:
        # the loop still enters a fast-path entry, whose guarded
        # classifier records the degradation on the first run (once: it
        # poisons the plan cache) and declines, so the JIT walk runs it.
        mode, crashed = None, True
    if mode is not None or crashed:
        ctx.needs_env = True

    if not iter_slots:
        if mode in ("elementwise", "scatter_store") or crashed:
            # scatter_store may still decline at runtime (failed
            # injectivity proof) — it returns False without side effects
            # and the scalar loop below takes over, accounting normally.
            from repro.ir.vectorize import try_vectorized_loop

            fast_path = try_vectorized_loop
        elif mode in (
            "nest_elementwise",
            "nest_reduction",
            "nest_scatter",
            "nest_segmented",
        ):
            # Perfect loop-nest chains and segmented (triangular / CSR)
            # nests evaluate whole-space; a runtime decline (short trip
            # count, NaN min/max fold, failed injectivity or monotone
            # proof) is side-effect free, so the scalar nested walk below
            # stays correct.
            from repro.ir.vectorize import try_vectorized_nest

            fast_path = try_vectorized_nest
        elif mode == "memref_reduction":
            def fast_path(interp, loop, env, lb, ub, step):
                return (
                    try_vectorized_reduction(interp, loop, env, lb, ub, step)
                    is not None
                )
        else:
            fast_path = None

        def run(interp, frame):
            interp.steps += 1
            lb, ub, step = frame[lb_i], frame[ub_i], frame[st_i]
            obs = interp.loop_observer
            if obs is not None:
                obs(op, _observed_trips(lb, ub, step), 1)
            if (
                fast_path is not None
                and interp.vectorize
                and fast_path(interp, op, frame[0], lb, ub, step)
            ):
                return
            max_steps = interp.max_steps
            iv = lb
            while iv < ub:
                frame[iv_slot] = iv
                body_run(interp, frame)
                if interp.steps > max_steps:
                    raise InterpreterError("interpreter step limit exceeded")
                iv += step
        return run

    reducible = mode == "iter_reduction" or crashed

    def run(interp, frame):
        interp.steps += 1
        lb, ub, step = frame[lb_i], frame[ub_i], frame[st_i]
        obs = interp.loop_observer
        if obs is not None:
            obs(op, _observed_trips(lb, ub, step), 1)
        if reducible and interp.vectorize:
            finals = try_vectorized_reduction(
                interp, op, frame[0], lb, ub, step
            )
            if finals is not None:
                for slot, value in zip(res_slots, finals):
                    frame[slot] = value
                return
        carried = [frame[s] for s in iter_slots]
        max_steps = interp.max_steps
        iv = lb
        while iv < ub:
            frame[iv_slot] = iv
            for slot, value in zip(arg_slots, carried):
                frame[slot] = value
            body_run(interp, frame)
            carried = [frame[s] for s in yld_slots]
            if interp.steps > max_steps:
                raise InterpreterError("interpreter step limit exceeded")
            iv += step
        for slot, value in zip(res_slots, carried):
            frame[slot] = value
    return run


@compiled_for("scf.if", counts_own_steps=True)
def _emit_if(op: Operation, ctx: FnCompiler):
    cond_i = ctx.slot(op.operands[0])
    res_slots = tuple(ctx.slot_list(op.results))
    branches = []
    for region_index in (0, 1):
        block = _single_block(op, region_index)
        last = block.ops[-1] if block.ops else None
        if last is not None and last.name == "scf.yield":
            src = tuple(ctx.slot_list(last.operands))
        else:
            src = ()
        if len(src) != len(res_slots):
            # scalar set_results would fault at run time; stay scalar
            raise CannotCompile("scf.if branch/result arity mismatch")
        runner = ctx.compile_body(block.ops, allow_terminators=("scf.yield",))
        branches.append((runner, src))
    (then_run, then_src), (else_run, else_src) = branches

    if not res_slots:
        def run(interp, frame):
            interp.steps += 1
            if frame[cond_i]:
                then_run(interp, frame)
            else:
                else_run(interp, frame)
        return run

    def run(interp, frame):
        interp.steps += 1
        if frame[cond_i]:
            then_run(interp, frame)
            src = then_src
        else:
            else_run(interp, frame)
            src = else_src
        values = [frame[s] for s in src]
        for slot, value in zip(res_slots, values):
            frame[slot] = value
    return run


@compiled_for("scf.while", counts_own_steps=True)
def _emit_while(op: Operation, ctx: FnCompiler):
    from repro.ir.interpreter import InterpreterError

    before = _single_block(op, 0)
    after = _single_block(op, 1)
    cond_op = before.ops[-1] if before.ops else None
    if cond_op is None or cond_op.name != "scf.condition":
        raise CannotCompile("scf.while before-region must end in condition")
    yield_op = after.ops[-1] if after.ops else None
    if yield_op is None or yield_op.name != "scf.yield":
        raise CannotCompile("scf.while after-region must end in yield")

    init_slots = tuple(ctx.slot_list(op.operands))
    before_args = tuple(ctx.slot_list(before.args))
    after_args = tuple(ctx.slot_list(after.args))
    res_slots = tuple(ctx.slot_list(op.results))
    cond_i = ctx.slot(cond_op.operands[0])
    cond_args = tuple(ctx.slot_list(cond_op.operands[1:]))
    yld_slots = tuple(ctx.slot_list(yield_op.operands))
    before_run = ctx.compile_body(
        before.ops, allow_terminators=("scf.condition",)
    )
    after_run = ctx.compile_body(after.ops, allow_terminators=("scf.yield",))

    def run(interp, frame):
        interp.steps += 1
        values = [frame[s] for s in init_slots]
        max_steps = interp.max_steps
        while True:
            for slot, value in zip(before_args, values):
                frame[slot] = value
            before_run(interp, frame)
            args = [frame[s] for s in cond_args]
            if not frame[cond_i]:
                for slot, value in zip(res_slots, args):
                    frame[slot] = value
                return
            for slot, value in zip(after_args, args):
                frame[slot] = value
            after_run(interp, frame)
            values = [frame[s] for s in yld_slots]
            if interp.steps > max_steps:
                raise InterpreterError("interpreter step limit exceeded")
    return run


@impl("scf.parallel")
def _run_parallel(interp: Interpreter, op: Operation, env: dict):
    ndims_attr = op.attributes["num_dims"]
    assert isinstance(ndims_attr, IntegerAttr)
    n = ndims_attr.value
    values = interp.operand_values(op, env)
    lbs, ubs, steps = values[:n], values[n : 2 * n], values[2 * n :]
    body = op.regions[0].block

    def recurse(dim: int, ivs: list[int]) -> None:
        if dim == n:
            interp.run_block(body, env, ivs)
            return
        iv = lbs[dim]
        while iv < ubs[dim]:
            recurse(dim + 1, [*ivs, iv])
            iv += steps[dim]

    recurse(0, [])
    return None

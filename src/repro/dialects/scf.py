"""SCF dialect: structured control flow (``scf.for``, ``scf.if``).

Structured control flow carries no SSA values: loop state lives in
memory, as in Flang's memory-based FIR and the round-robin memref
accumulators ``lower-omp-to-hls`` builds for a reduction.  ``scf.for``
has no ``iter_args`` and no results, ``scf.if`` has no results, and
``scf.yield`` has no operands; each op's ``verify_`` rejects the
value-carrying forms.
"""

from __future__ import annotations

from repro.ir.core import Block, Dialect, IRError, Operation, Region, SSAValue
from repro.ir.interpreter import Interpreter, Yielded, impl
from repro.ir.traits import IsTerminator
from repro.ir.types import index
from repro.transforms.loop_analysis import step_error, trip_count


class Yield(Operation):
    """Operand-free terminator of an ``scf.for`` body or ``scf.if``
    branch."""

    name = "scf.yield"
    traits = (IsTerminator,)

    def __init__(self):
        super().__init__()

    def verify_(self) -> None:
        if self.operands:
            raise IRError("scf.yield carries no values")


class For(Operation):
    """``scf.for %iv = %lb to %ub step %step``.

    The body block receives the induction variable only; the upper
    bound is exclusive (MLIR semantics).
    """

    name = "scf.for"

    def __init__(
        self,
        lb: SSAValue,
        ub: SSAValue,
        step: SSAValue,
        body: Region | None = None,
    ):
        super().__init__(
            operands=[lb, ub, step],
            regions=[body or Region([Block([index])])],
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
    def body(self) -> Block:
        return self.regions[0].block

    @property
    def induction_var(self) -> SSAValue:
        return self.body.args[0]

    def verify_(self) -> None:
        if len(self.operands) != 3 or self.results:
            raise IRError(
                "scf.for takes lb, ub and step and has no results: loop "
                "state lives in memory"
            )
        body = self.regions[0].block
        if len(body.args) != 1:
            raise IRError("scf.for body takes the induction variable only")
        if not isinstance(body.last_op, Yield):
            raise IRError("scf.for body must end with scf.yield")


class If(Operation):
    """``scf.if`` with then/else regions and no results."""

    name = "scf.if"

    def __init__(
        self,
        cond: SSAValue,
        then_region: Region | None = None,
        else_region: Region | None = None,
    ):
        super().__init__(
            operands=[cond],
            regions=[
                then_region or Region([Block()]),
                else_region or Region([Block()]),
            ],
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

    def verify_(self) -> None:
        if self.results:
            raise IRError("scf.if has no results: values flow through memory")


Scf = Dialect("scf", [Yield, For, If])


# -- interpreter implementations ---------------------------------------------------


@impl("scf.yield")
def _run_yield(interp: Interpreter, op: Operation, env: dict):
    return Yielded(())


@impl("scf.for")
def _run_for(interp: Interpreter, op: Operation, env: dict):
    lb, ub, step = interp.operand_values(op, env)
    if step <= 0:
        raise step_error(op.name, step)
    observer = interp.loop_observer
    if observer is not None:
        observer(op, trip_count(lb, ub, step), 1)
    if interp.vectorize:
        from repro.ir.vectorize import try_rank1_loop

        if try_rank1_loop(interp, op, env, lb, ub, step):
            return None
    body = op.regions[0].block
    iv = lb
    while iv < ub:
        interp.run_block(body, env, [iv])
        iv += step
    return None


@impl("scf.if")
def _run_if(interp: Interpreter, op: Operation, env: dict):
    region = op.regions[0] if interp.get(env, op.operands[0]) else op.regions[1]
    interp.run_block(region.block, env)
    return None


# -- compiled-form emitters ---------------------------------------------------
#
# Structured control flow compiles to inline Python loops and branches
# around the bodies' statements.  A loop invokes ``interp.loop_observer``
# (cycle accounting) and its vectorized fast path exactly like the scalar
# ``_run_for`` does, and keeps step accounting identical: one step for
# the structured op plus the per-iteration body op count.

from repro.ir.compile import CannotCompile, FnCodegen, compiled_for, helpers

helpers(step_error=step_error, trip_count=trip_count)


def _single_block(op: Operation, region_index: int) -> Block:
    regions = op.regions
    if region_index >= len(regions) or len(regions[region_index].blocks) != 1:
        raise CannotCompile(op.name)
    return regions[region_index].blocks[0]


def _fast_path(op: Operation):
    """The whole-space entry ``op`` tries first, or None (the JIT walk)."""
    from repro.ir.vectorize import (
        loop_vector_mode,
        try_vectorized_loop,
        try_vectorized_nest,
        try_vectorized_reduction,
    )

    try:
        mode, _ = loop_vector_mode(op)
    except Exception:  # noqa: BLE001 - degrade this loop, not the function
        # A planner crash must not take the whole function off the JIT:
        # the loop still enters a fast-path entry, whose guarded
        # classifier records the degradation on the first run (once: it
        # poisons the plan cache) and declines, so the JIT walk runs it.
        return try_vectorized_loop
    if mode in ("elementwise", "scatter_store"):
        # scatter_store may still decline at runtime (failed injectivity
        # proof) — it returns False without side effects and the scalar
        # loop takes over, accounting normally.
        return try_vectorized_loop
    if mode == "memref_reduction":
        return try_vectorized_reduction
    if mode is not None:
        # Perfect loop-nest chains and segmented (triangular / CSR /
        # tiled) nests evaluate whole-space; a runtime decline (short
        # trip count, NaN min/max fold, failed injectivity or monotone
        # proof) is side-effect free, so the nested walk stays correct.
        return try_vectorized_nest
    return None


@compiled_for("scf.for", counts_own_steps=True)
def _emit_for(op: Operation, gen: FnCodegen) -> None:
    body = _single_block(op, 0)
    last = body.ops[-1] if body.ops else None
    if last is None or last.name != "scf.yield":
        raise CannotCompile("scf.for body does not end in scf.yield")
    n = gen.local()
    lb, ub, st, iv = f"lb{n}", f"ub{n}", f"st{n}", f"iv{n}"
    loop = gen.bind(op, "loop")
    gen.emit(
        "interp.steps += 1",
        f"{lb}, {ub}, {st} = {', '.join(gen.ref(o) for o in op.operands)}",
        f"if {st} <= 0:",
        f"    raise step_error('scf.for', {st})",
        "obs = interp.loop_observer",
        "if obs is not None:",
        f"    obs({loop}, trip_count({lb}, {ub}, {st}), 1)",
    )
    fast_path = _fast_path(op)
    if fast_path is not None:
        # captured now: a wrapper bound to the entry's name later does not
        # see this loop
        gen.needs_env = True
        entry = gen.bind(fast_path, "entry")
        # a handled loop starts its walk at the upper bound
        gen.emit(
            f"{iv} = {ub} if interp.vectorize and {entry}(interp, {loop}, "
            f"frame[0], {lb}, {ub}, {st}) else {lb}"
        )
    else:
        gen.emit(f"{iv} = {lb}")
    gen.emit(f"max{n} = interp.max_steps", f"while {iv} < {ub}:")
    gen.block(
        body.ops, "scf.yield",
        head=[f"{gen.dest(body.args[0])} = {iv}"],
        tail=[
            f"if interp.steps > max{n}:",
            "    raise InterpreterError('interpreter step limit exceeded')",
            f"{iv} += {st}",
        ],
    )


@compiled_for("scf.if", counts_own_steps=True)
def _emit_if(op: Operation, gen: FnCodegen) -> None:
    then_block, else_block = _single_block(op, 0), _single_block(op, 1)
    gen.emit("interp.steps += 1", f"if {gen.ref(op.operands[0])}:")
    gen.block(then_block.ops, "scf.yield")
    gen.emit("else:")
    gen.block(else_block.ops, "scf.yield")

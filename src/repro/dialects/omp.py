"""OpenMP dialect (subset mirroring MLIR's ``omp`` dialect).

Covers exactly what the paper's flow consumes: ``target`` offload with
data mapping (``map_info``/``bounds``), data regions
(``target_data``/``target_enter_data``/``target_exit_data``/
``target_update``), and loop constructs (``parallel``, ``wsloop``,
``simd``, ``loop_nest``) with reduction support.

Sequential interpreter implementations give OpenMP's *semantics* so
frontend output can be executed and compared against post-lowering IR.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.ir.attributes import ArrayAttr, IntegerAttr, StringAttr, UnitAttr
from repro.ir.core import Block, Dialect, IRError, Operation, Region, SSAValue
from repro.ir.interpreter import Interpreter, Yielded, impl
from repro.ir.traits import IsolatedFromAbove, IsTerminator
from repro.ir.types import TypeAttribute, index

#: Map types supported by ``omp.map_info`` (OpenMP 5 map-type modifiers,
#: with the paper's ``tofrom,implicit`` spelling for implicit maps).
MAP_TYPES = (
    "to",
    "from",
    "tofrom",
    "alloc",
    "to,implicit",
    "from,implicit",
    "tofrom,implicit",
)

#: Reduction kinds accepted on ``omp.wsloop``/``omp.simd``.
REDUCTION_KINDS = ("add", "mul", "max", "min")


@dataclass(frozen=True)
class DataBoundsType(TypeAttribute):
    """Opaque result type of ``omp.bounds``."""

    name = "omp.data_bounds"

    def print(self) -> str:
        return "!omp.data_bounds"


data_bounds = DataBoundsType()


class BoundsOp(Operation):
    """``omp.bounds`` — array-section bounds (lower, upper inclusive)."""

    name = "omp.bounds"

    def __init__(self, lower: SSAValue, upper: SSAValue):
        super().__init__(operands=[lower, upper], result_types=[data_bounds])

    @property
    def lower(self) -> SSAValue:
        return self.operands[0]

    @property
    def upper(self) -> SSAValue:
        return self.operands[1]


class MapInfoOp(Operation):
    """``omp.map_info`` — describes how one variable is mapped.

    Result is the mapped variable (pass-through), so ``omp.target`` can use
    map results as operands, exactly as in MLIR.
    """

    name = "omp.map_info"

    def __init__(
        self,
        var: SSAValue,
        var_name: str,
        map_type: str,
        bounds: Sequence[SSAValue] = (),
    ):
        if map_type not in MAP_TYPES:
            raise IRError(f"invalid map type {map_type!r}")
        super().__init__(
            operands=[var, *bounds],
            result_types=[var.type],
            attributes={
                "var_name": StringAttr(var_name),
                "map_type": StringAttr(map_type),
            },
        )

    @property
    def var(self) -> SSAValue:
        return self.operands[0]

    @property
    def bounds(self) -> tuple[SSAValue, ...]:
        return self.operands[1:]

    @property
    def var_name(self) -> str:
        attr = self.attributes["var_name"]
        assert isinstance(attr, StringAttr)
        return attr.value

    @property
    def map_type(self) -> str:
        attr = self.attributes["map_type"]
        assert isinstance(attr, StringAttr)
        return attr.value

    @property
    def is_implicit(self) -> bool:
        return self.map_type.endswith(",implicit")

    @property
    def base_map_type(self) -> str:
        return self.map_type.split(",")[0]

    @property
    def copies_to_device(self) -> bool:
        return self.base_map_type in ("to", "tofrom")

    @property
    def copies_from_device(self) -> bool:
        return self.base_map_type in ("from", "tofrom")


class TerminatorOp(Operation):
    """Region terminator for omp container ops."""

    name = "omp.terminator"
    traits = (IsTerminator,)

    def __init__(self):
        super().__init__()


class YieldOp(Operation):
    """Loop-body terminator."""

    name = "omp.yield"
    traits = (IsTerminator,)

    def __init__(self, values: Sequence[SSAValue] = ()):
        super().__init__(operands=values)


class TargetOp(Operation):
    """``omp.target`` — offload the region to the device.

    IsolatedFromAbove: the region's block arguments correspond 1:1 to the
    ``map_info`` operands, which is what makes the later kernel extraction
    a pure region transplant.
    """

    name = "omp.target"
    traits = (IsolatedFromAbove,)

    def __init__(self, map_vars: Sequence[SSAValue], body: Region | None = None):
        if body is None:
            body = Region([Block([v.type for v in map_vars])])
        super().__init__(operands=map_vars, regions=[body])

    @property
    def map_vars(self) -> tuple[SSAValue, ...]:
        return self.operands

    @property
    def body(self) -> Block:
        return self.regions[0].block

    def map_info_ops(self) -> list[MapInfoOp]:
        """The defining ``omp.map_info`` for each operand."""
        infos = []
        for operand in self.operands:
            from repro.ir.core import OpResult

            if not isinstance(operand, OpResult) or not isinstance(
                operand.op, MapInfoOp
            ):
                raise IRError("omp.target operand is not an omp.map_info result")
            infos.append(operand.op)
        return infos

    def verify_(self) -> None:
        body = self.regions[0].block
        if len(body.args) != len(self.operands):
            raise IRError(
                "omp.target: region must have one block arg per mapped var"
            )


class TargetDataOp(Operation):
    """``omp.target_data`` — structured device data region (host code runs
    inside the region)."""

    name = "omp.target_data"

    def __init__(self, map_vars: Sequence[SSAValue], body: Region | None = None):
        if body is None:
            body = Region([Block()])
        super().__init__(operands=map_vars, regions=[body])

    @property
    def map_vars(self) -> tuple[SSAValue, ...]:
        return self.operands

    @property
    def body(self) -> Block:
        return self.regions[0].block


class TargetEnterDataOp(Operation):
    """Unstructured data-region begin."""

    name = "omp.target_enter_data"

    def __init__(self, map_vars: Sequence[SSAValue]):
        super().__init__(operands=map_vars)


class TargetExitDataOp(Operation):
    """Unstructured data-region end."""

    name = "omp.target_exit_data"

    def __init__(self, map_vars: Sequence[SSAValue]):
        super().__init__(operands=map_vars)


class TargetUpdateOp(Operation):
    """``omp.target_update`` — refresh host/device copies inside a region."""

    name = "omp.target_update"

    def __init__(self, map_vars: Sequence[SSAValue]):
        super().__init__(operands=map_vars)


class ParallelOp(Operation):
    """``omp.parallel`` — parallel region (teams of threads on CPU;
    spatial parallelism after FPGA lowering)."""

    name = "omp.parallel"

    def __init__(self, body: Region | None = None):
        super().__init__(regions=[body or Region([Block()])])

    @property
    def body(self) -> Block:
        return self.regions[0].block


class WsLoopOp(Operation):
    """``omp.wsloop`` — worksharing loop wrapper.

    The single region holds either an ``omp.loop_nest`` directly or an
    ``omp.simd`` wrapping one.  Reductions: ``reduction_vars`` are rank-0
    memrefs updated inside the loop; ``reduction_kinds`` names the
    combiner per variable.
    """

    name = "omp.wsloop"

    def __init__(
        self,
        body: Region | None = None,
        reduction_vars: Sequence[SSAValue] = (),
        reduction_kinds: Sequence[str] = (),
    ):
        if len(reduction_vars) != len(reduction_kinds):
            raise IRError("reduction vars/kinds length mismatch")
        for kind in reduction_kinds:
            if kind not in REDUCTION_KINDS:
                raise IRError(f"invalid reduction kind {kind!r}")
        attributes = {}
        if reduction_kinds:
            attributes["reduction_kinds"] = ArrayAttr(
                [StringAttr(k) for k in reduction_kinds]
            )
        super().__init__(
            operands=reduction_vars,
            regions=[body or Region([Block()])],
            attributes=attributes,
        )

    @property
    def reduction_vars(self) -> tuple[SSAValue, ...]:
        return self.operands

    @property
    def reduction_kinds(self) -> list[str]:
        attr = self.attributes.get("reduction_kinds")
        if not isinstance(attr, ArrayAttr):
            return []
        return [a.value for a in attr if isinstance(a, StringAttr)]

    @property
    def body(self) -> Block:
        return self.regions[0].block

    def loop_nest(self) -> "LoopNestOp":
        for op in self.body.ops:
            if isinstance(op, LoopNestOp):
                return op
            if isinstance(op, SimdOp):
                return op.loop_nest()
        raise IRError("omp.wsloop does not contain a loop nest")


class SimdOp(Operation):
    """``omp.simd`` with a ``simdlen`` attribute: on the FPGA this becomes
    partial unrolling by ``simdlen`` (paper §3)."""

    name = "omp.simd"

    def __init__(self, simdlen: int = 1, body: Region | None = None):
        super().__init__(
            regions=[body or Region([Block()])],
            attributes={"simdlen": IntegerAttr.i64(simdlen)},
        )

    @property
    def simdlen(self) -> int:
        attr = self.attributes["simdlen"]
        assert isinstance(attr, IntegerAttr)
        return attr.value

    @property
    def body(self) -> Block:
        return self.regions[0].block

    def loop_nest(self) -> "LoopNestOp":
        for op in self.body.ops:
            if isinstance(op, LoopNestOp):
                return op
        raise IRError("omp.simd does not contain a loop nest")


class LoopNestOp(Operation):
    """``omp.loop_nest`` — the canonical loop nest: per-dimension
    lb/ub/step triples with the Fortran-style *inclusive* upper bounds
    marked by the ``inclusive`` unit attribute.

    Rank 1 is the paper's combined ``target parallel do``; ``collapse(n)``
    produces a rank-n nest whose body block carries one induction-variable
    argument per dimension (outermost first), mirroring MLIR's
    ``omp.loop_nest``.  Operands are laid out ``lbs... ubs... steps...``.
    """

    name = "omp.loop_nest"

    def __init__(
        self,
        lb: SSAValue | Sequence[SSAValue],
        ub: SSAValue | Sequence[SSAValue],
        step: SSAValue | Sequence[SSAValue],
        body: Region | None = None,
        inclusive: bool = True,
    ):
        lbs = [lb] if isinstance(lb, SSAValue) else list(lb)
        ubs = [ub] if isinstance(ub, SSAValue) else list(ub)
        steps = [step] if isinstance(step, SSAValue) else list(step)
        if not lbs or len(lbs) != len(ubs) or len(lbs) != len(steps):
            raise IRError("omp.loop_nest: lb/ub/step ranks must match")
        attributes = {"inclusive": UnitAttr()} if inclusive else {}
        super().__init__(
            operands=[*lbs, *ubs, *steps],
            regions=[body or Region([Block([index] * len(lbs))])],
            attributes=attributes,
        )

    @property
    def rank(self) -> int:
        return len(self.operands) // 3

    @property
    def lbs(self) -> tuple[SSAValue, ...]:
        return self.operands[: self.rank]

    @property
    def ubs(self) -> tuple[SSAValue, ...]:
        return self.operands[self.rank : 2 * self.rank]

    @property
    def steps(self) -> tuple[SSAValue, ...]:
        return self.operands[2 * self.rank :]

    @property
    def lb(self) -> SSAValue:
        return self.operands[0]

    @property
    def ub(self) -> SSAValue:
        return self.operands[self.rank]

    @property
    def step(self) -> SSAValue:
        return self.operands[2 * self.rank]

    @property
    def inclusive(self) -> bool:
        return "inclusive" in self.attributes

    @property
    def body(self) -> Block:
        return self.regions[0].block

    @property
    def induction_var(self) -> SSAValue:
        return self.body.args[0]

    @property
    def induction_vars(self) -> tuple[SSAValue, ...]:
        return tuple(self.body.args)

    def verify_(self) -> None:
        if len(self.operands) % 3 != 0:
            raise IRError("omp.loop_nest needs lb/ub/step per dimension")
        if len(self.regions[0].block.args) != self.rank:
            raise IRError("omp.loop_nest body must have one IV arg per dim")


Omp = Dialect(
    "omp",
    [
        BoundsOp, MapInfoOp, TerminatorOp, YieldOp,
        TargetOp, TargetDataOp, TargetEnterDataOp, TargetExitDataOp,
        TargetUpdateOp, ParallelOp, WsLoopOp, SimdOp, LoopNestOp,
    ],
)


# -- interpreter implementations (sequential OpenMP semantics) -------------------


@impl("omp.bounds")
def _run_bounds(interp: Interpreter, op: Operation, env: dict):
    lower, upper = interp.operand_values(op, env)
    interp.set_results(op, env, [(int(lower), int(upper))])
    return None


@impl("omp.map_info")
def _run_map_info(interp: Interpreter, op: Operation, env: dict):
    interp.set_results(op, env, [interp.get(env, op.operands[0])])
    return None


@impl("omp.terminator")
def _run_terminator(interp: Interpreter, op: Operation, env: dict):
    return Yielded(())


@impl("omp.yield")
def _run_yield(interp: Interpreter, op: Operation, env: dict):
    return Yielded(tuple(interp.operand_values(op, env)))


@impl("omp.target")
def _run_target(interp: Interpreter, op: Operation, env: dict):
    args = interp.operand_values(op, env)
    interp.run_block(op.regions[0].block, env, args)
    return None


@impl("omp.target_data")
def _run_target_data(interp: Interpreter, op: Operation, env: dict):
    interp.run_block(op.regions[0].block, env, [])
    return None


@impl("omp.target_enter_data")
@impl("omp.target_exit_data")
@impl("omp.target_update")
def _run_data_edge(interp: Interpreter, op: Operation, env: dict):
    return None


@impl("omp.parallel")
def _run_parallel(interp: Interpreter, op: Operation, env: dict):
    interp.run_block(op.regions[0].block, env, [])
    return None


@impl("omp.wsloop")
@impl("omp.simd")
def _run_loop_wrapper(interp: Interpreter, op: Operation, env: dict):
    interp.run_block(op.regions[0].block, env, [])
    return None


@impl("omp.loop_nest")
def _run_loop_nest(interp: Interpreter, op: Operation, env: dict):
    values = interp.operand_values(op, env)
    rank = len(values) // 3
    lbs = list(values[:rank])
    ubs = list(values[rank : 2 * rank])
    steps = list(values[2 * rank :])
    for step in steps:
        if step <= 0:
            from repro.transforms.loop_analysis import step_error

            raise step_error(op.name, step)
    if "inclusive" in op.attributes:
        ubs = [ub + 1 for ub in ubs]
    body = op.regions[0].block
    if rank == 1:
        lb, ub, step = lbs[0], ubs[0], steps[0]
        if interp.vectorize:
            from repro.ir.vectorize import try_rank1_loop

            if try_rank1_loop(interp, op, env, lb, ub, step):
                return None
        iv = lb
        while iv < ub:
            interp.run_block(body, env, [iv])
            iv += step
        return None
    if interp.vectorize:
        from repro.ir.vectorize import try_vectorized_loop_nest

        if try_vectorized_loop_nest(interp, op, env, lbs, ubs, steps):
            return None

    def run_dim(dim: int, ivs: list) -> None:
        lb, ub, step = lbs[dim], ubs[dim], steps[dim]
        iv = lb
        while iv < ub:
            if dim + 1 == rank:
                interp.run_block(body, env, [*ivs, iv])
            else:
                run_dim(dim + 1, [*ivs, iv])
            iv += step

    run_dim(0, [])
    return None

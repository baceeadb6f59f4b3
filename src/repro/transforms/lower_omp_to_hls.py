"""The *lower omp loops to HLS* pass (paper Figure 2, device side).

Runs on the ``target = "fpga"`` module.  For every kernel function:

* each memref argument gets an ``hls.interface`` binding to its own
  ``m_axi`` bundle (``gmem0``, ``gmem1``, ... — paper Listing 4);
* ``omp.parallel``/``omp.wsloop``/``omp.loop_nest`` becomes a pipelined
  ``scf.for`` whose body starts with ``hls.pipeline(%ii)``;
* an ``omp.simd`` wrapper with ``simdlen(F)`` performs *partial
  unrolling* by F (main loop with step F plus a remainder loop), marked
  with ``hls.unroll`` so the backend replicates functional units;
* ``reduction`` clauses are rewritten into F (or a static default of 8)
  round-robin partial accumulators combined after the loop (paper §3).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dialects import arith, func, hls, memref, omp, scf
from repro.ir.builder import Builder
from repro.ir.core import Operation, Region, SSAValue
from repro.ir.pass_manager import ModulePass, PassOption, register_pass
from repro.ir.types import FloatType, IntegerType, MemRefType
from repro.reliability.errors import LoweringError, wrap_error


def _enclosing_kernel(op: Operation) -> str | None:
    """Symbol name of the ``func.func`` containing ``op``, if any."""
    from repro.ir.attributes import StringAttr

    fn = op.get_parent_of_type(func.FuncOp)
    if fn is None:
        return None
    sym = fn.attributes.get("sym_name")
    return sym.value if isinstance(sym, StringAttr) else None


_IDENTITY = {
    "add": lambda ty: 0,
    "mul": lambda ty: 1,
    "max": lambda ty: -3.0e38 if isinstance(ty, FloatType) and ty.width == 32
    else (-1.0e308 if isinstance(ty, FloatType) else -(2**31)),
    "min": lambda ty: 3.0e38 if isinstance(ty, FloatType) and ty.width == 32
    else (1.0e308 if isinstance(ty, FloatType) else 2**31 - 1),
}


def _combine_op(kind: str, ty, lhs: SSAValue, rhs: SSAValue) -> Operation:
    is_float = isinstance(ty, FloatType)
    table = {
        ("add", True): arith.AddF, ("add", False): arith.AddI,
        ("mul", True): arith.MulF, ("mul", False): arith.MulI,
        ("max", True): arith.MaxF, ("max", False): arith.MaxSI,
        ("min", True): arith.MinF, ("min", False): arith.MinSI,
    }
    cls = table[(kind, is_float)]
    if is_float:
        return cls(lhs, rhs, fastmath="contract")
    return cls(lhs, rhs)


def _const_for(ty, value) -> arith.Constant:
    if isinstance(ty, FloatType):
        return arith.Constant.float(float(value), ty.width)
    if isinstance(ty, IntegerType):
        return arith.Constant.int(int(value), ty.width)
    raise LoweringError(
        f"cannot materialize reduction identity of type {ty.print()}"
    )


@dataclass
class _Reduction:
    var: SSAValue          # the rank-0 device memref being reduced
    kind: str              # add | mul | max | min
    copies: SSAValue = None  # memref<N x T> of partial accumulators  # type: ignore[assignment]
    ncopies: int = 0


class LowerOmpToHlsPass(ModulePass):
    """Lower OpenMP loop constructs in the device module to HLS form."""

    name = "lower-omp-to-hls"

    options = (
        PassOption(
            "reduction_copies", int, 8,
            "round-robin partial accumulators when no simdlen applies",
        ),
        PassOption("target_ii", int, 1, "pipeline initiation-interval goal"),
        PassOption(
            "shared_bundle", bool, False,
            "bind every array to one shared m_axi bundle (ablation)",
        ),
        PassOption(
            "simdlen", int, None,
            "override the directive's simdlen unroll factor (1 disables "
            "unrolling; unset respects the source directive)",
        ),
    )

    def __init__(
        self,
        reduction_copies: int = 8,
        target_ii: int = 1,
        shared_bundle: bool = False,
        simdlen: int | None = None,
    ):
        self.reduction_copies = reduction_copies
        self.target_ii = target_ii
        #: ablation knob: True binds every array to one shared m_axi
        #: bundle instead of the paper's one-bundle-per-argument choice.
        self.shared_bundle = shared_bundle
        #: when set, wins over (or supplies) the ``omp.simd`` factor —
        #: the DSE sweep knob that replaced source-text rewriting.
        self.simdlen = simdlen

    def apply(self, module: Operation) -> None:
        for fn in list(module.walk_type(func.FuncOp)):
            self._add_interfaces(fn)
        for par in [op for op in module.walk() if op.name == "omp.parallel"]:
            if par.parent is not None:
                kernel = _enclosing_kernel(par)
                try:
                    self._lower_parallel(par)
                except LoweringError as error:
                    if error.kernel is None:
                        error.kernel = kernel
                    raise
                except Exception as error:
                    raise wrap_error(
                        error,
                        LoweringError,
                        kernel=kernel,
                        context="omp.parallel lowering",
                    ) from error
        leftovers = sorted(
            {op.name for op in module.walk() if op.name.startswith("omp.")}
        )
        if leftovers:
            raise LoweringError(
                f"lower-omp-to-hls left omp ops behind: {leftovers}",
                context=self.name,
            )

    # -- interfaces ------------------------------------------------------------------

    def _add_interfaces(self, fn: func.FuncOp) -> None:
        """Bind kernel arguments to ports: arrays get their own ``m_axi``
        bundle (gmem0, gmem1, ...); rank-0 scalars go through the
        ``s_axilite`` control interface, as Vitis maps value arguments."""
        if not fn.regions or not fn.regions[0].blocks:
            return
        body = fn.body
        builder = Builder.at_start(body)
        memref_args = [a for a in body.args if isinstance(a.type, MemRefType)]
        if not memref_args:
            return
        m_axi_code = builder.insert(arith.Constant.int(hls.M_AXI, 32))
        m_axi = builder.insert(hls.AxiProtocolOp(m_axi_code.results[0]))
        axilite_code = builder.insert(arith.Constant.int(hls.AXILITE, 32))
        axilite = builder.insert(hls.AxiProtocolOp(axilite_code.results[0]))
        bundle_index = 0
        for arg in memref_args:
            assert isinstance(arg.type, MemRefType)
            if arg.type.rank == 0:
                builder.insert(
                    hls.InterfaceOp(arg, axilite.results[0], "control")
                )
            else:
                bundle = "gmem0" if self.shared_bundle else f"gmem{bundle_index}"
                builder.insert(
                    hls.InterfaceOp(arg, m_axi.results[0], bundle)
                )
                bundle_index += 1

    # -- loop lowering ------------------------------------------------------------------

    def _lower_parallel(self, par: Operation) -> None:
        wsloop = self._only_child(par, "omp.wsloop")
        simd_op = self._maybe_child(wsloop, "omp.simd")
        nest_parent = simd_op if simd_op is not None else wsloop
        nest = self._only_child(nest_parent, "omp.loop_nest")
        assert isinstance(nest, omp.LoopNestOp)

        builder = Builder.before(par)
        one = builder.insert(arith.Constant.index(1)).results[0]
        ub_exs = [
            builder.insert(arith.AddI(ub, one)).results[0] for ub in nest.ubs
        ]
        lb, step = nest.lbs[-1], nest.steps[-1]
        ub_ex = ub_exs[-1]

        source_factor = simd_op.simdlen if isinstance(simd_op, omp.SimdOp) else 1
        factor = self.simdlen if self.simdlen is not None else source_factor
        reductions = self._setup_reductions(
            wsloop, builder, factor if factor > 1 else self.reduction_copies
        )

        # collapse(n) nests: materialize the outer n-1 dimensions as plain
        # (unpipelined) scf.for loops; only the innermost dimension is
        # pipelined/unrolled below.  The outer induction variables replace
        # the nest's leading block args when the body is cloned.
        inner_builder = builder
        outer_map: dict[SSAValue, SSAValue] = {}
        outer_loops: list[Operation] = []
        for dim in range(nest.rank - 1):
            outer = inner_builder.insert(
                scf.For(nest.lbs[dim], ub_exs[dim], nest.steps[dim])
            )
            outer.induction_var.name_hint = nest.body.args[dim].name_hint
            outer_map[nest.body.args[dim]] = outer.induction_var
            outer_loops.append(outer)
            inner_builder = Builder.at_end(outer.body)

        if factor <= 1 and not reductions and nest.rank == 1:
            self._emit_pipelined_for(inner_builder, nest, lb, ub_ex, step)
        elif factor <= 1:
            self._emit_cloned_loop(
                inner_builder, nest, lb, ub_ex, step, reductions, outer_map
            )
            nest.erase(safe=False)
        else:
            self._emit_unrolled(
                inner_builder, nest, lb, ub_ex, step, factor, reductions,
                outer_map,
            )

        for outer in outer_loops:
            Builder.at_end(outer.regions[0].block).insert(scf.Yield())

        self._combine_reductions(builder, reductions)
        par.erase(safe=False)

    @staticmethod
    def _only_child(op: Operation, name: str) -> Operation:
        for child in op.regions[0].block.ops:
            if child.name == name:
                return child
        raise LoweringError(
            f"{op.name} does not contain a {name}", context=op.name
        )

    @staticmethod
    def _maybe_child(op: Operation, name: str) -> Operation | None:
        for child in op.regions[0].block.ops:
            if child.name == name:
                return child
        return None

    # -- reduction plumbing ------------------------------------------------------------

    def _setup_reductions(
        self, wsloop: Operation, builder: Builder, ncopies: int
    ) -> list[_Reduction]:
        assert isinstance(wsloop, omp.WsLoopOp)
        reductions = []
        for var, kind in zip(wsloop.reduction_vars, wsloop.reduction_kinds):
            var_ty = var.type
            assert isinstance(var_ty, MemRefType) and var_ty.rank == 0, (
                "reduction variables must be rank-0 memrefs"
            )
            elem = var_ty.element_type
            copies = builder.insert(
                memref.Alloca(MemRefType(elem, [ncopies]))
            ).results[0]
            identity = builder.insert(
                _const_for(elem, _IDENTITY[kind](elem))
            ).results[0]
            for slot in range(ncopies):
                slot_idx = builder.insert(arith.Constant.index(slot)).results[0]
                builder.insert(memref.Store(identity, copies, [slot_idx]))
            reductions.append(
                _Reduction(var=var, kind=kind, copies=copies, ncopies=ncopies)
            )
        return reductions

    def _combine_reductions(
        self, builder: Builder, reductions: list[_Reduction]
    ) -> None:
        for red in reductions:
            elem = red.var.type.element_type  # type: ignore[union-attr]
            acc = builder.insert(memref.Load(red.var, [])).results[0]
            for slot in range(red.ncopies):
                slot_idx = builder.insert(arith.Constant.index(slot)).results[0]
                partial = builder.insert(
                    memref.Load(red.copies, [slot_idx])
                ).results[0]
                acc = builder.insert(
                    _combine_op(red.kind, elem, acc, partial)
                ).results[0]
            builder.insert(memref.Store(acc, red.var, []))

    # -- loop body emission -------------------------------------------------------------

    def _emit_pipelined_for(
        self,
        builder: Builder,
        nest: omp.LoopNestOp,
        lb: SSAValue,
        ub_ex: SSAValue,
        step: SSAValue,
    ) -> None:
        """Fast path: transplant the loop body (paper Listing 4 shape)."""
        body: Region = nest.regions[0]
        nest.regions.remove(body)
        body.parent = None
        block = body.block
        last = block.last_op
        if isinstance(last, omp.YieldOp):
            last.erase()
        block.add_op(scf.Yield())
        loop = scf.For(lb, ub_ex, step, body)
        builder.insert(loop)
        inner = Builder.at_start(loop.body)
        ii = inner.insert(arith.Constant.int(self.target_ii, 32))
        inner.goto_after(ii)
        inner.insert(hls.PipelineOp(ii.results[0]))
        nest.erase(safe=False)

    def _emit_cloned_loop(
        self,
        builder: Builder,
        nest: omp.LoopNestOp,
        lb: SSAValue,
        ub_ex: SSAValue,
        step: SSAValue,
        reductions: list[_Reduction],
        outer_map: dict[SSAValue, SSAValue] | None = None,
    ) -> None:
        """Pipelined loop with body cloning (reduction redirection)."""
        loop = builder.insert(scf.For(lb, ub_ex, step))
        inner = Builder.at_end(loop.body)
        ii = inner.insert(arith.Constant.int(self.target_ii, 32)).results[0]
        inner.insert(hls.PipelineOp(ii))
        self._instantiate_body(
            inner, nest, loop.induction_var, lb, step, reductions, outer_map
        )
        inner.insert(scf.Yield())

    def _emit_unrolled(
        self,
        builder: Builder,
        nest: omp.LoopNestOp,
        lb: SSAValue,
        ub_ex: SSAValue,
        step: SSAValue,
        factor: int,
        reductions: list[_Reduction],
        outer_map: dict[SSAValue, SSAValue] | None = None,
    ) -> None:
        """Partial unrolling by ``factor``: main loop + remainder loop."""
        factor_c = builder.insert(arith.Constant.index(factor)).results[0]
        chunk = builder.insert(arith.MulI(step, factor_c)).results[0]
        span = builder.insert(arith.SubI(ub_ex, lb)).results[0]
        trips = builder.insert(arith.DivSI(span, chunk)).results[0]
        main_len = builder.insert(arith.MulI(trips, chunk)).results[0]
        main_ub = builder.insert(arith.AddI(lb, main_len)).results[0]

        main = builder.insert(scf.For(lb, main_ub, chunk))
        inner = Builder.at_end(main.body)
        ii = inner.insert(arith.Constant.int(self.target_ii, 32)).results[0]
        inner.insert(hls.PipelineOp(ii))
        inner.insert(hls.UnrollOp(factor))
        for j in range(factor):
            offset = inner.insert(arith.Constant.index(j)).results[0]
            scaled = inner.insert(arith.MulI(step, offset)).results[0]
            iv_j = inner.insert(
                arith.AddI(main.induction_var, scaled)
            ).results[0]
            self._instantiate_body(
                inner, nest, iv_j, lb, step, reductions, outer_map
            )
        inner.insert(scf.Yield())

        remainder = builder.insert(scf.For(main_ub, ub_ex, step))
        rem_inner = Builder.at_end(remainder.body)
        self._instantiate_body(
            rem_inner, nest, remainder.induction_var, lb, step, reductions,
            outer_map,
        )
        rem_inner.insert(scf.Yield())
        nest.erase(safe=False)

    def _instantiate_body(
        self,
        builder: Builder,
        nest: omp.LoopNestOp,
        iv: SSAValue,
        lb: SSAValue,
        step: SSAValue,
        reductions: list[_Reduction],
        outer_map: dict[SSAValue, SSAValue] | None = None,
    ) -> None:
        """Clone the loop-nest body at ``iv`` (the innermost dimension;
        ``outer_map`` substitutes outer collapse dimensions), redirecting
        reduction accesses into the round-robin copy buffers."""
        slot: SSAValue | None = None
        if reductions:
            # The slot must dominate the cloned body ops that use it.
            slot = self._slot_value(builder, iv, lb, step, reductions[0].ncopies)
        value_map: dict[SSAValue, SSAValue] = dict(outer_map or {})
        value_map[nest.body.args[-1]] = iv
        cloned: list[Operation] = []
        for op in nest.body.ops:
            if isinstance(op, omp.YieldOp):
                continue
            new_op = op.clone(value_map)
            builder.insert(new_op)
            cloned.append(new_op)
        if not reductions:
            return
        red_by_var = {red.var: red for red in reductions}
        for op in cloned:
            for inner_op in list(op.walk()):
                self._redirect_reduction_access(inner_op, red_by_var, slot)

    def _slot_value(
        self,
        builder: Builder,
        iv: SSAValue,
        lb: SSAValue,
        step: SSAValue,
        ncopies: int,
    ) -> SSAValue:
        offset = builder.insert(arith.SubI(iv, lb)).results[0]
        trip = builder.insert(arith.DivSI(offset, step)).results[0]
        n = builder.insert(arith.Constant.index(ncopies)).results[0]
        return builder.insert(arith.RemSI(trip, n)).results[0]

    @staticmethod
    def _redirect_reduction_access(
        op: Operation, red_by_var: dict[SSAValue, _Reduction], slot: SSAValue
    ) -> None:
        if op.name == "memref.load" and op.operands[0] in red_by_var:
            red = red_by_var[op.operands[0]]
            replacement = memref.Load(red.copies, [slot])
            op.parent.insert_op_before(replacement, op)
            op.results[0].replace_by(replacement.results[0])
            op.erase()
        elif op.name == "memref.store" and op.operands[1] in red_by_var:
            red = red_by_var[op.operands[1]]
            replacement = memref.Store(op.operands[0], red.copies, [slot])
            op.parent.insert_op_before(replacement, op)
            op.erase()


register_pass(LowerOmpToHlsPass)

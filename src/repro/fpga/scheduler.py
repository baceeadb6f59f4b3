"""HLS scheduling: initiation intervals, pipeline structure, binding.

This is the core of the simulated Vitis HLS synthesis.  For every
``scf.for`` in a kernel it derives the *achieved* initiation interval:

``II = max(target II, dependence II, memory II)``

* dependence II comes from :mod:`repro.transforms.loop_analysis`
  (loop-carried recurrences / round-robin reduction distances);
* memory II models the AXI bottleneck: each ``m_axi`` bundle serves one
  outstanding non-burst access at a time, so a body issuing ``k``
  accesses to one bundle needs ``k * m_axi_access_cycles`` cycles per
  iteration — this is what makes both benchmark kernels memory-bound and
  why SAXPY's unroll-by-10 does not change the per-element runtime
  (paper Tables 1/3);
* on-chip buffers (allocas) are dual-ported BRAM/LUTRAM: II contribution
  ``ceil(accesses / 2)``.

The same walk performs *binding*: physical operator instances are
``ceil(replication / II)`` (Vitis time-multiplexes under large II), and
the ``clang_mac`` idiom is bound to DSP cascades.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dialects import func, hls
from repro.fpga.board import U280Board
from repro.fpga.resources import (
    AXILITE_ARG_LUTS,
    FLOAT_OP_LUTS,
    INT_OP_LUTS,
    M_AXI_PORT_FF,
    M_AXI_PORT_LUTS,
    MAC_DSP_COUNT,
    MAC_DSP_LUTS,
    UNROLL_COPY_LUTS,
    OperatorCount,
    ResourceUsage,
    bram_blocks_for,
    shell_usage,
)
from repro.ir.core import Block, Operation, SSAValue
from repro.ir.types import MemRefType
from repro.transforms.loop_analysis import (
    DEFAULT_LATENCIES,
    float_chain_latency,
    min_initiation_interval,
    root_memref,
    walk_same_loop_level,
)


@dataclass
class LoopSchedule:
    """Scheduling result for one loop."""

    loop: Operation
    pipelined: bool
    target_ii: int
    dependence_ii: int
    memory_ii: int
    achieved_ii: int
    unroll_factor: int
    fill_cycles: int
    bundle_accesses: dict[str, int] = field(default_factory=dict)
    #: loop is not nested inside another ``scf.for`` of the kernel — the
    #: dimension a multi-compute-unit build shards into contiguous
    #: blocks (the OpenMP-parallel dim: ``omp target parallel do``
    #: always lowers the distributed loop outermost in the kernel)
    outermost: bool = False

    def cycles(self, trip_count: int) -> float:
        if trip_count <= 0:
            return 0.0
        if self.pipelined:
            return self.fill_cycles + trip_count * self.achieved_ii
        return trip_count * self.achieved_ii


@dataclass
class KernelSchedule:
    """Full schedule + binding for one kernel function."""

    name: str
    func_op: func.FuncOp
    loops: dict[Operation, LoopSchedule]  # keyed by the loop op
    operators: list[OperatorCount]
    kernel_resources: ResourceUsage
    start_overhead_cycles: int = 200

    @property
    def total_resources(self) -> ResourceUsage:
        return shell_usage() + self.kernel_resources


def _is_outermost_loop(op: Operation) -> bool:
    """True when no enclosing ``scf.for`` exists within the kernel."""
    parent = op.parent_op
    while parent is not None:
        if parent.name == "scf.for":
            return False
        parent = parent.parent_op
    return True


class HlsScheduler:
    """Schedules and binds one device kernel function."""

    def __init__(self, board: U280Board):
        self.board = board

    # -- bundle discovery ----------------------------------------------------------

    def _interface_bundles(self, fn: func.FuncOp) -> dict[SSAValue, str]:
        bundles: dict[SSAValue, str] = {}
        for op in fn.walk():
            if isinstance(op, hls.InterfaceOp):
                bundles[op.arg] = op.bundle
        return bundles

    # -- entry ----------------------------------------------------------------------

    def schedule(self, fn: func.FuncOp) -> KernelSchedule:
        bundles = self._interface_bundles(fn)
        loops: dict[Operation, LoopSchedule] = {}
        operators: list[OperatorCount] = []
        resources = ResourceUsage()

        m_axi_count = sum(1 for b in bundles.values() if b != "control")
        axilite_count = len(bundles) - m_axi_count
        resources.luts += M_AXI_PORT_LUTS * m_axi_count
        resources.ffs += M_AXI_PORT_FF * m_axi_count
        resources.luts += AXILITE_ARG_LUTS * axilite_count

        # Binding is function-level: loops execute mutually exclusively, so
        # Vitis shares physical operator instances across them — pool by
        # elementwise max rather than summing per loop.
        pooled_physical: dict[str, OperatorCount] = {}
        unroll_overhead_luts = 0
        for op in fn.walk():
            if op.name == "scf.for":
                schedule = self._schedule_loop(op, bundles)
                schedule.outermost = _is_outermost_loop(op)
                loops[op] = schedule
                loop_ops, loop_resources = self._bind_loop(op, schedule)
                unroll_overhead_luts += (
                    schedule.unroll_factor * UNROLL_COPY_LUTS
                    if schedule.unroll_factor > 1
                    else 0
                )
                resources.bram_36k += loop_resources.bram_36k
                for operator in loop_ops:
                    existing = pooled_physical.get(operator.op_name)
                    if existing is None or operator.physical > existing.physical:
                        pooled_physical[operator.op_name] = operator
            elif op.name == "memref.alloca":
                ty = op.results[0].type
                if isinstance(ty, MemRefType) and ty.has_static_shape:
                    from repro.dialects.memref import element_dtype

                    nbytes = ty.num_elements() * element_dtype(
                        ty.element_type
                    ).itemsize
                    resources.bram_36k += bram_blocks_for(nbytes)

        operators = sorted(pooled_physical.values(), key=lambda o: o.op_name)
        for operator in operators:
            if operator.dsp_mapped:
                resources.dsp += operator.physical * MAC_DSP_COUNT
                resources.luts += operator.physical * MAC_DSP_LUTS
            else:
                cost = FLOAT_OP_LUTS.get(
                    operator.op_name, INT_OP_LUTS.get(operator.op_name, 0)
                )
                resources.luts += operator.physical * cost
                resources.ffs += operator.physical * cost
        resources.luts += unroll_overhead_luts

        return KernelSchedule(
            name=fn.sym_name,
            func_op=fn,
            loops=loops,
            operators=operators,
            kernel_resources=resources,
        )

    # -- per-loop scheduling ------------------------------------------------------------

    def _schedule_loop(
        self, loop: Operation, bundles: dict[SSAValue, str]
    ) -> LoopSchedule:
        body = loop.regions[0].block
        pipelined = False
        target_ii = 1
        unroll = 1
        for op in body.ops:
            if isinstance(op, hls.PipelineOp):
                pipelined = True
                static = op.static_ii()
                if static is not None:
                    target_ii = max(1, static)
            elif isinstance(op, hls.UnrollOp):
                unroll = op.factor

        bundle_accesses = self._count_bundle_accesses(body, bundles)
        memory_ii = 0
        for bundle, count in bundle_accesses.items():
            if bundle == "_onchip":
                memory_ii = max(memory_ii, -(-count // 2))
            else:
                memory_ii = max(
                    memory_ii, count * self.board.m_axi_access_cycles
                )

        dependence_ii = min_initiation_interval(loop, DEFAULT_LATENCIES)
        if pipelined:
            achieved = max(target_ii, dependence_ii, memory_ii, 1)
        else:
            # Unpipelined loop: every iteration pays the full latency.
            achieved = max(
                1,
                float_chain_latency(body, DEFAULT_LATENCIES) + memory_ii,
            )
        return LoopSchedule(
            loop=loop,
            pipelined=pipelined,
            target_ii=target_ii,
            dependence_ii=dependence_ii,
            memory_ii=memory_ii,
            achieved_ii=achieved,
            unroll_factor=unroll,
            fill_cycles=self.board.pipeline_depth_cycles,
            bundle_accesses=bundle_accesses,
        )

    def _count_bundle_accesses(
        self, body: Block, bundles: dict[SSAValue, str]
    ) -> dict[str, int]:
        accesses: dict[str, int] = {}
        for nested in walk_same_loop_level(body):
            if nested.name == "memref.load":
                root = root_memref(nested.operands[0])
            elif nested.name == "memref.store":
                root = root_memref(nested.operands[1])
            else:
                continue
            bundle = bundles.get(root, "_onchip")
            if bundle == "control":
                continue  # s_axilite scalars are registers: free accesses
            accesses[bundle] = accesses.get(bundle, 0) + 1
        return accesses

    # -- binding --------------------------------------------------------------------------

    def _bind_loop(
        self, loop: Operation, schedule: LoopSchedule
    ) -> tuple[list[OperatorCount], ResourceUsage]:
        """Physical operator requirements of one loop; the caller pools
        across loops (mutually exclusive execution shares units).  Only
        BRAM is returned as a direct resource (buffers are not shared)."""
        body = loop.regions[0].block
        counts: dict[str, int] = {}
        mac_pairs = 0
        consumed: set[int] = set()

        ops_in_body = list(walk_same_loop_level(body))
        for op in ops_in_body:
            if id(op) in consumed:
                continue
            if op.name == "arith.mulf" and "clang_mac" in op.attributes:
                use = op.results[0].single_use
                if use is not None and use.operation.name == "arith.addf":
                    mac_pairs += 1
                    consumed.add(id(op))
                    consumed.add(id(use.operation))
                    continue
            if op.name in FLOAT_OP_LUTS or op.name in INT_OP_LUTS:
                counts[op.name] = counts.get(op.name, 0) + 1

        operators: list[OperatorCount] = []
        ii = max(schedule.achieved_ii, 1)
        for name, replication in sorted(counts.items()):
            physical = -(-replication // ii)
            operators.append(OperatorCount(name, replication, physical))
        if mac_pairs:
            physical = -(-mac_pairs // ii)
            operators.append(
                OperatorCount("clang_mac", mac_pairs, physical, dsp_mapped=True)
            )
        return operators, ResourceUsage()

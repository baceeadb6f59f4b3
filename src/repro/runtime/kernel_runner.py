"""Functional + timed execution of synthesized kernels.

Shared by the compiled-flow executor and the hand-written-HLS baselines:
runs a kernel from a :class:`~repro.backend.vitis.Bitstream` on NumPy
arguments, observing loop trip counts during interpretation and charging
``fill + trips * achieved_II`` cycles per scheduled loop.

Multi-compute-unit builds (``bitstream.compute_units > 1``) shard each
kernel's *outermost* loops across the CUs in contiguous blocks (CU 0
gets iterations ``[0, ceil(T/N))``, remainder spread over the leading
CUs) and price the launch as the **makespan** — the slowest CU's cycle
count.  Functional execution stays the serial whole-space walk: a
contiguous-block shard whose partial results recombine in fixed CU
order performs *exactly* the serial iteration order, so outputs
(including ordered f32 reductions) are bit-identical at every CU count
by construction.  Per-CU accounting is derived from the same per-loop
trip observations as the serial model: outermost loops are sharded
exactly (each CU pays its own pipeline fill plus ``block * II``), and
the cycles of loops nested inside them are distributed proportionally
to each CU's share of outer iterations (exact for rectangular nests,
the standard balanced-load model for triangular ones).  There is one
accounting path: every run aggregates its per-loop ``{trips: count}``
multiset and is priced as the makespan over the CUs, a single-CU build
being the N=1 case.

Reliability: a *watchdog step budget* bounds how many interpreter steps
one kernel execution may retire — a hung (or injected-hang) kernel
raises a typed :class:`~repro.reliability.errors.WatchdogTimeout`
instead of spinning.  An aborted execution discards its observations
and the executor rolls its step counter back via :meth:`reset_steps`,
so a retried kernel reproduces fault-free accounting exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.backend.vitis import Bitstream
from repro.fpga.scheduler import KernelSchedule
from repro.ir.core import IRError, Operation
from repro.ir.interpreter import Interpreter, InterpreterError
from repro.reliability.errors import WatchdogTimeout


@dataclass
class KernelRun:
    """One kernel execution: cycle count and seconds at the kernel clock.

    For multi-CU builds ``cycles`` is the makespan (slowest CU) and
    ``per_cu_cycles`` holds every CU's own count in CU order; for
    single-CU builds ``per_cu_cycles`` stays empty and ``cycles`` is the
    serial model, byte-identical to pre-multi-CU accounting."""

    cycles: float
    seconds: float
    per_cu_cycles: tuple[float, ...] = ()


def _observer(agg: dict[Operation, dict[int, int]]):
    """The loop observer of one kernel run: it records ``count``
    executions of ``op`` with ``trips`` iterations each (the whole-space
    fast paths batch identical inner-loop executions) in ``agg``, the
    run's ``{loop op: {trips: count}}`` multiset."""

    def observe(op: Operation, trips: int, count: int) -> None:
        per_loop = agg.setdefault(op, {})
        per_loop[trips] = per_loop.get(trips, 0) + count

    return observe


class KernelRunner:
    """Runs bitstream kernels functionally while accounting cycles."""

    def __init__(
        self,
        bitstream: Bitstream,
        *,
        compiled: bool = True,
        vectorize: bool = True,
        watchdog_steps: int | None = None,
    ):
        self.bitstream = bitstream
        #: default per-run step budget (None = unbounded); the watchdog
        #: of every kernel simulation this runner performs
        self.watchdog_steps = watchdog_steps
        self._interp = Interpreter(
            bitstream.device_module, compiled=compiled, vectorize=vectorize
        )
        self._compute_units = bitstream.compute_units

    @property
    def interpreter_steps(self) -> int:
        """Steps retired by device-kernel interpretation so far."""
        return self._interp.steps

    def reset_steps(self, value: int) -> None:
        """Roll the step counter back to ``value`` — used by the
        executor's retry path after an aborted kernel execution so the
        partial attempt leaves no trace in the modelled step count."""
        self._interp.steps = value

    def attach_report(self, report) -> None:
        """Attach a :class:`~repro.reliability.report.RunReport` so
        engine-tier degradations inside kernel simulation are recorded."""
        self._interp.reliability_report = report

    def run(
        self, kernel_name: str, *args, step_budget: int | None = None
    ) -> KernelRun:
        """Execute ``kernel_name`` on ``args``.

        ``step_budget`` overrides the runner's default watchdog for this
        one execution (the fault injector uses a tiny budget to simulate
        a hang); exhausting either budget raises
        :class:`WatchdogTimeout` with the partial cycle count discarded.
        """
        design = self.bitstream.kernels.get(kernel_name)
        if design is None:
            raise IRError(f"no kernel {kernel_name!r} in the bitstream")
        interp = self._interp
        budget = step_budget if step_budget is not None else self.watchdog_steps
        saved_max = interp.max_steps
        budget_limit = None
        if budget is not None:
            budget_limit = interp.steps + budget
            interp.max_steps = min(saved_max, budget_limit)
        # Cycle accounting hooks the interpreter's loop observer (fired
        # once per scf.for execution with the observed trip count) rather
        # than overriding the scf.for impl, so device loops still run on
        # the compiled/vectorized fast paths.  The observer lives for one
        # run and refers to its multiset only: a standing bound method
        # would tie the runner and its interpreter in a reference cycle
        # that only the cyclic GC frees.
        agg: dict[Operation, dict[int, int]] = {}
        interp.loop_observer = _observer(agg)
        try:
            interp.call(kernel_name, *args)
        except InterpreterError as error:
            if budget_limit is not None and interp.steps >= budget_limit:
                raise WatchdogTimeout(
                    f"kernel {kernel_name!r} exceeded its watchdog step "
                    f"budget ({budget} steps)",
                    kernel=kernel_name,
                ) from error
            raise
        finally:
            interp.max_steps = saved_max
            interp.loop_observer = None
        cycles, per_cu = self._makespan(design, agg)
        seconds = self.bitstream.board.cycles_to_seconds(cycles)
        return KernelRun(
            cycles=cycles,
            seconds=seconds,
            per_cu_cycles=per_cu if self._compute_units > 1 else (),
        )

    # -- cycle accounting -------------------------------------------------------------

    def _makespan(
        self, design: KernelSchedule, agg: dict[Operation, dict[int, int]]
    ) -> tuple[float, tuple[float, ...]]:
        """Shard the observed iteration space over the CUs and return
        ``(makespan, per-CU cycles)``; a single-CU build is the N=1 case,
        whose makespan is the serial cycle count.

        Outermost loops are sharded exactly: ``divmod(trips, N)`` splits
        each observed execution into contiguous blocks, the remainder
        iterations going to the leading CUs, and each CU pays its own
        pipeline fill plus ``block * II``.  Loops nested inside them ride
        along with their outer iterations: their total cycles are
        distributed proportionally to each CU's share of outer trips —
        exact for rectangular nests, the balanced-load model for
        triangular ones.  All per-loop cycle values are integer-valued
        floats, so the sums are exact and order-independent (bit-identical
        across engine tiers whatever order they observe loops in)."""
        n = self._compute_units
        overhead = float(design.start_overhead_cycles)
        outer_cycles = [0.0] * n
        outer_iters = [0] * n
        inner_cycles = 0.0
        for op, per_loop in agg.items():
            schedule = design.loops.get(op)
            if schedule is None:
                continue
            for trips, count in per_loop.items():
                if schedule.outermost:
                    base, rem = divmod(trips, n)
                    for cu in range(n):
                        block = base + 1 if cu < rem else base
                        outer_cycles[cu] += count * schedule.cycles(block)
                        outer_iters[cu] += count * block
                else:
                    inner_cycles += count * schedule.cycles(trips)
        total_outer = sum(outer_iters)
        if total_outer == 0:
            # Nothing to shard (scalar kernel or zero-trip loops): CU 0
            # runs the whole kernel, the replicas just spin up.
            serial = overhead + inner_cycles
            return serial, (serial,) + (overhead,) * (n - 1)
        per_cu = []
        for cycles, iters in zip(outer_cycles, outer_iters):
            per_cu.append(
                overhead + cycles + inner_cycles * (iters / total_outer)
            )
        return max(per_cu), tuple(per_cu)

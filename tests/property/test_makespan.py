"""``KernelRunner._makespan`` prices every observed loop multiset as the
sharded formula does, bit for bit, at every CU count.

A one-CU launch is priced in plain accumulators, without the per-CU
lists of the N-CU branch; this pins it, and the N-CU branch, to the
one sharded formula below for random ``{loop: {trips: count}}``
multisets over outermost and nested loops.
"""

from __future__ import annotations

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fpga.scheduler import LoopSchedule
from repro.runtime.kernel_runner import KernelRunner


def _reference(n, overhead, loops, agg):
    """The sharded makespan at ``n`` CUs: per-CU lists at every N."""
    outer_cycles = [0.0] * n
    outer_iters = [0] * n
    inner_cycles = 0.0
    for op, per_loop in agg.items():
        schedule = loops.get(op)
        if schedule is None:
            continue
        if schedule.outermost:
            for trips, count in per_loop.items():
                base, rem = divmod(trips, n)
                for cu in range(n):
                    block = base + 1 if cu < rem else base
                    outer_cycles[cu] += count * schedule.cycles(block)
                    outer_iters[cu] += count * block
        else:
            for trips, count in per_loop.items():
                inner_cycles += count * schedule.cycles(trips)
    total_outer = sum(outer_iters)
    if total_outer == 0:
        serial = overhead + inner_cycles
        return serial, (serial,) + (overhead,) * (n - 1)
    per_cu = [
        overhead + cycles + inner_cycles * (iters / total_outer)
        for cycles, iters in zip(outer_cycles, outer_iters)
    ]
    return max(per_cu), tuple(per_cu)


_schedules = st.builds(
    lambda pipelined, ii, fill, outermost: LoopSchedule(
        loop=None, pipelined=pipelined, target_ii=1, dependence_ii=1,
        memory_ii=1, achieved_ii=ii, unroll_factor=1, fill_cycles=fill,
        outermost=outermost,
    ),
    st.booleans(), st.integers(1, 9), st.integers(0, 300), st.booleans(),
)


@given(
    schedules=st.lists(_schedules, min_size=0, max_size=5),
    multisets=st.lists(
        st.dictionaries(st.integers(0, 5000), st.integers(1, 2000),
                        max_size=6),
        min_size=5, max_size=5,
    ),
    overhead=st.integers(0, 1000),
    unscheduled=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_makespan_matches_the_sharded_formula(
    schedules, multisets, overhead, unscheduled
):
    ops = [object() for _ in schedules]
    loops = dict(zip(ops, schedules))
    agg = dict(zip(ops, multisets))
    if unscheduled:
        agg[object()] = {7: 3}  # an observed loop with no schedule
    design = SimpleNamespace(start_overhead_cycles=overhead, loops=loops)
    for n in (1, 2, 3, 4):
        runner = KernelRunner.__new__(KernelRunner)
        runner._compute_units = n
        cycles, per_cu = runner._makespan(design, agg)
        expected, expected_per_cu = _reference(n, float(overhead), loops, agg)
        assert cycles.hex() == expected.hex()
        # a one-CU launch reports no per-CU tuple
        assert per_cu == (expected_per_cu if n > 1 else ())

"""Design-space exploration extension tests (paper §4 future work).

The sweep runs on the staged :class:`~repro.session.Session` API: one
frontend + host build per workload per sweep, one device build per
point, ``simdlen`` honored inside ``lower-omp-to-hls`` instead of
rewriting the Fortran source text.
"""

import numpy as np
import pytest

from repro.dse import explore, explore_simdlen, explore_workload
from repro.session import KernelOverrides, Session
from repro.workloads import SAXPY_SOURCE

pytestmark = pytest.mark.slow  # DSE sweeps synthesize several variants


class TestGallerySweep:
    def test_explore_workload_by_name(self):
        result = explore_workload(
            "jacobi2d", simdlen_factors=(1, 2), n=64
        )
        assert len(result.points) == 2
        assert result.best is not None
        assert result.best.lut_pct > 0

    def test_frontend_compiles_once_per_sweep(self):
        """The artifact-reuse contract: a 3-point sweep parses and
        host-builds exactly once; only device builds repeat."""
        result = explore_workload(
            "saxpy", simdlen_factors=(1, 2, 4), n=2000
        )
        counters = result.session.counters
        assert counters["frontend_compiles"] == 1
        assert counters["host_device_builds"] == 1
        assert counters["device_builds"] == 3

    def test_collapse_nest_survives_simd_override(self):
        """A simdlen override on a collapse(2) workload still produces
        bit-exact output (unroll happens on the innermost dim)."""
        from repro.workloads import get_workload

        workload = get_workload("jacobi2d")
        session = Session(workload.source)
        program = session.program(KernelOverrides(simdlen=4))
        assert program is not session.program()  # distinct device build
        instance = workload.instance(workload.smoke_size)
        program.executor().run(workload.entry, *instance.args)
        workload.check(instance)

    @pytest.mark.parametrize("name", ["heat3d", "batched_gemm"])
    def test_rank3_nests_sweep(self, name):
        """DSE over the rank-3 workloads: every point feasible, outputs
        bit-exact even when the simdlen override unrolls the innermost
        dim (which drops the nest out of the whole-space fast path —
        results must not change, only wall-clock)."""
        result = explore_workload(name, simdlen_factors=(1, 2))
        assert len(result.points) == 2
        assert result.best is not None

    @pytest.mark.parametrize("name", ["heat3d", "batched_gemm"])
    def test_rank3_simd_override_stays_bit_exact(self, name):
        from repro.workloads import get_workload

        workload = get_workload(name)
        session = Session(workload.source)
        program = session.program(KernelOverrides(simdlen=2))
        instance = workload.instance(workload.smoke_size)
        program.executor().run(workload.entry, *instance.args)
        workload.check(instance)


def _saxpy_evaluator(n=5000):
    rng = np.random.default_rng(0)
    x = rng.standard_normal(n).astype(np.float32)
    y = rng.standard_normal(n).astype(np.float32)

    def evaluate(program):
        return program.executor().run(
            "saxpy", np.array(2.0, np.float32), x, y.copy(),
            np.array(n, np.int32),
        )

    return evaluate


class TestSimdlenOverride:
    def test_override_wins_over_source_directive(self):
        """SAXPY's source says simdlen(10); the override must replace it
        in the lowered device module's unroll factor."""
        session = Session(SAXPY_SOURCE)
        program = session.program(KernelOverrides(simdlen=8))
        kernel = next(iter(program.bitstream.kernels.values()))
        # main loop unrolled by the override; the remainder loop stays 1
        assert max(s.unroll_factor for s in kernel.loops.values()) == 8

    def test_override_one_disables_unrolling(self):
        session = Session(SAXPY_SOURCE)
        program = session.program(KernelOverrides(simdlen=1))
        kernel = next(iter(program.bitstream.kernels.values()))
        assert {s.unroll_factor for s in kernel.loops.values()} == {1}

    def test_unset_respects_source(self):
        session = Session(SAXPY_SOURCE)
        program = session.program()  # simdlen=None
        kernel = next(iter(program.bitstream.kernels.values()))
        assert max(s.unroll_factor for s in kernel.loops.values()) == 10


class TestExploration:
    def test_sweep_produces_points(self):
        result = explore_simdlen(
            SAXPY_SOURCE, _saxpy_evaluator(), factors=(1, 4)
        )
        assert len(result.points) == 2
        assert {p.simdlen for p in result.points} == {1, 4}
        assert result.best in result.points

    def test_budget_filters(self):
        result = explore(
            SAXPY_SOURCE,
            _saxpy_evaluator(),
            simdlen_factors=(1,),
            max_lut_pct=1.0,  # impossible: shell alone is ~8 %
        )
        assert result.best is None

    def test_best_is_fastest_feasible(self):
        result = explore_simdlen(
            SAXPY_SOURCE, _saxpy_evaluator(), factors=(1, 2, 4)
        )
        assert result.best.device_time_s == min(
            p.device_time_s for p in result.points
        )

    def test_programs_dropped_by_default(self):
        """DsePoint.program is opt-in so gallery sweeps stay flat."""
        result = explore_simdlen(
            SAXPY_SOURCE, _saxpy_evaluator(), factors=(1, 2)
        )
        assert all(p.program is None for p in result.points)
        # the heavy device builds were evicted from the session cache
        # too, not just hidden behind a None attribute
        assert result.session._builds == {}
        assert result.session.counters["device_builds"] == 2

    def test_board_sets_the_session_target(self):
        """``board=`` is the sweep's one target setting: the session the
        sweep builds runs on it."""
        from repro.fpga.board import U280Board

        other = U280Board(kernel_clock_hz=150e6)
        result = explore(
            SAXPY_SOURCE, _saxpy_evaluator(), board=other,
            simdlen_factors=(1,),
        )
        assert result.session.board == other
        assert len(result.points) == 1

    def test_dsp_budget_filters(self):
        """DSP utilization is enforced alongside the LUT budget: an
        impossible DSP ceiling leaves no feasible best point."""
        result = explore(
            SAXPY_SOURCE,
            _saxpy_evaluator(),
            simdlen_factors=(1,),
            max_dsp_pct=0.0,
        )
        assert result.points[0].dsp_pct > 0.0
        assert result.best is None

    def test_keep_programs_opt_in(self):
        result = explore_simdlen(
            SAXPY_SOURCE, _saxpy_evaluator(), factors=(1, 2),
            keep_programs=True,
        )
        assert all(p.program is not None for p in result.points)
        # all points share the session's host-side artifacts
        hosts = {id(p.program.host_module) for p in result.points}
        assert len(hosts) == 1

    def test_table_render(self):
        result = explore_simdlen(
            SAXPY_SOURCE, _saxpy_evaluator(), factors=(1,),
            max_lut_pct=65.0, max_dsp_pct=55.0,
        )
        table = result.table()
        assert "simdlen" in table and "LUT %" in table
        # both enforced budgets are surfaced in the rendered table
        assert "DSP %" in table
        assert "LUT <= 65" in table and "DSP <= 55" in table


class TestWorkloadSweep:
    def test_histogram_sweep_finds_feasible_point(self):
        result = explore_workload(
            "histogram", simdlen_factors=(1, 2), n=512
        )
        assert len(result.points) == 2
        assert result.best is not None
        assert result.best.dsp_pct <= result.max_dsp_pct

"""Multi-compute-unit sharding & double-buffered streaming conformance.

The multi-CU contract (ROADMAP open item 5, PR 10):

* **functional invariance** — outputs are bit-identical at every CU
  count and on every engine tier (the functional walk stays the serial
  iteration order; only the cycle model shards), including the f32
  reduction workloads where a reordered recombination would drift;
* **honest pricing** — modelled ``device_time_ms`` falls as CUs are
  added (sharded outermost loops), per-CU cycles are exposed, and the
  1-CU build is byte-identical to a build with no overrides at all;
* **typed rejection** — an over-budget ``compute_units`` raises
  :class:`DeviceBuildError` at build time, never a clamped build;
* **streaming** — ``stream_tile_bytes`` re-times (never re-orders) DMA:
  a tile >= the array is exactly the non-streamed model, a smaller tile
  splits each transfer into ``ceil(nbytes/tile)`` tile transfers whose
  cost overlaps the adjacent kernel window, and datasets larger than a
  device memory space only allocate when streaming is armed;
* **fault isolation** — injected DMA/kernel faults under multi-CU
  either recover with bit-identical accounting or raise the site's
  typed error; they never corrupt outputs.

The CI ``scaling`` matrix job runs one leg per CU count by exporting
``REPRO_CU=<n>`` (comma lists work too); without it the sweep covers
1, 2 and 4 CUs.
"""

import os

import numpy as np
import pytest

from repro.fpga.board import U280Board
from repro.reliability.errors import (
    DeviceAllocationError,
    DeviceBuildError,
    DmaError,
)
from repro.reliability.faults import FaultPlan, FaultSpec
from repro.session import KernelOverrides, Session, TargetConfig
from repro.workloads import get_workload

#: (compiled, vectorize) — scalar ground truth first.
TIERS = ((False, False), (False, True), (True, False), (True, True))


def _cu_counts() -> tuple[int, ...]:
    env = os.environ.get("REPRO_CU", "").strip()
    if env:
        return tuple(int(token) for token in env.split(","))
    return (1, 2, 4)


CU_COUNTS = _cu_counts()

#: loop-shape coverage: 1-D streaming, f32 reduction (recombination
#: order), 2-D and rank-3 nests, and sgesl's triangular trip counts
#: (the remainder-heavy shard case).
WORKLOADS = ("saxpy", "dot", "jacobi2d", "heat3d", "sgesl")

_SESSIONS: dict[str, Session] = {}


def _program(name: str, units: int, **overrides):
    session = _SESSIONS.setdefault(name, Session(get_workload(name).source))
    return session.program(
        KernelOverrides(compute_units=units, **overrides)
    )


def _run(name, program, *, compiled=True, vectorize=True, fault_plan=None):
    workload = get_workload(name)
    instance = workload.instance(workload.smoke_size)
    executor = program.executor(
        compiled=compiled, vectorize=vectorize, fault_plan=fault_plan
    )
    result = executor.run(workload.entry, *instance.args)
    return result, instance


# -- bit-identity matrix: workloads x CU counts x engine tiers ----------------


@pytest.mark.parametrize("units", CU_COUNTS)
@pytest.mark.parametrize("name", WORKLOADS)
def test_tiers_bit_identical_per_cu_count(name, units):
    """All four engine tiers agree bit-for-bit at this CU count — on
    outputs (against the NumPy reference), steps, modelled time, cycles
    and the per-CU cycle split."""
    workload = get_workload(name)
    program = _program(name, units)
    observed = []
    for compiled, vectorize in TIERS:
        result, instance = _run(
            name, program, compiled=compiled, vectorize=vectorize
        )
        workload.check(instance)
        outputs = {
            pos: np.asarray(arg).tobytes()
            for pos, arg in instance.outputs().items()
        }
        observed.append(((compiled, vectorize), result, outputs))

    _, scalar_result, scalar_outputs = observed[0]
    for tier, result, outputs in observed[1:]:
        assert outputs == scalar_outputs, f"tier {tier}: outputs differ"
        assert result.interpreter_steps == scalar_result.interpreter_steps
        assert result.device_time_ms == scalar_result.device_time_ms, (
            f"tier {tier}: device_time_ms diverged at {units} CUs"
        )
        assert result.kernel_cycles == scalar_result.kernel_cycles
        assert result.cu_cycles == scalar_result.cu_cycles

    if units == 1:
        assert scalar_result.cu_cycles == ()
    else:
        assert len(scalar_result.cu_cycles) == units
        assert all(c > 0 for c in scalar_result.cu_cycles)
        assert max(scalar_result.cu_cycles) <= scalar_result.kernel_cycles


@pytest.mark.parametrize("name", WORKLOADS)
def test_outputs_invariant_across_cu_counts(name):
    """The CU count may only move modelled time: outputs and the
    functional step count are identical at every count, and adding CUs
    never makes the modelled device slower."""
    results = {}
    for units in CU_COUNTS:
        result, instance = _run(name, _program(name, units))
        get_workload(name).check(instance)
        outputs = {
            pos: np.asarray(arg).tobytes()
            for pos, arg in instance.outputs().items()
        }
        results[units] = (result, outputs)
    baseline_units = CU_COUNTS[0]
    base_result, base_outputs = results[baseline_units]
    for units, (result, outputs) in results.items():
        assert outputs == base_outputs, (
            f"{name}: outputs changed between {baseline_units} and "
            f"{units} CUs"
        )
        assert result.interpreter_steps == base_result.interpreter_steps
        if units > baseline_units:
            # sharded compute always gets cheaper; end-to-end time only
            # improves when compute dominates — sgesl's per-k launches
            # are enqueue-overhead-bound at smoke size, and the model is
            # honest about N CUs paying N enqueues per launch
            assert result.kernel_time_s < base_result.kernel_time_s, (
                f"{name}: {units} CUs did not shrink kernel compute"
            )
            if name != "sgesl":
                assert result.device_time_ms < base_result.device_time_ms, (
                    f"{name}: {units} CUs not faster than {baseline_units}"
                )


@pytest.mark.parametrize("units", CU_COUNTS)
def test_modelled_values_deterministic(units):
    """Two identical runs at the same CU count reproduce every modelled
    value exactly — the property the CI scaling floors stand on."""
    program = _program("saxpy", units)
    first, _ = _run("saxpy", program)
    second, _ = _run("saxpy", program)
    assert first.device_time_ms == second.device_time_ms
    assert first.kernel_cycles == second.kernel_cycles
    assert first.interpreter_steps == second.interpreter_steps
    assert first.cu_cycles == second.cu_cycles


def test_single_cu_build_matches_default_build():
    """compute_units=1 must be byte-identical to a build that never
    heard of compute units (the BENCH_pr8 compatibility guarantee)."""
    default_result, _ = _run("saxpy", _program("saxpy", None or 1))
    workload = get_workload("saxpy")
    plain = workload.compile()
    plain_result, instance = _run("saxpy", plain)
    workload.check(instance)
    assert default_result.device_time_ms == plain_result.device_time_ms
    assert default_result.kernel_cycles == plain_result.kernel_cycles
    assert (
        default_result.interpreter_steps == plain_result.interpreter_steps
    )
    assert plain_result.cu_cycles == ()


# -- over-budget rejection ----------------------------------------------------


def test_over_budget_compute_units_rejected():
    """A CU count whose replicated kernels blow the place-and-route
    budget raises a typed DeviceBuildError naming the resource — the
    build never silently clamps."""
    session = Session(get_workload("saxpy").source)
    with pytest.raises(DeviceBuildError, match="place-and-route budget"):
        session.device_build(KernelOverrides(compute_units=100_000))


@pytest.mark.parametrize("bad", (0, -1, 2.5, "4"))
def test_invalid_compute_units_rejected(bad):
    session = Session(get_workload("saxpy").source)
    with pytest.raises(DeviceBuildError, match="compute_units"):
        session.device_build(KernelOverrides(compute_units=bad))


def test_replicated_resources_reported():
    """The utilization report accounts every CU replica."""
    session = Session(get_workload("saxpy").source)
    one = session.device_build(KernelOverrides(compute_units=1)).bitstream
    four = session.device_build(KernelOverrides(compute_units=4)).bitstream
    assert four.resources.luts > one.resources.luts
    assert "(x4 compute units)" in four.report()


# -- double-buffered streaming ------------------------------------------------

#: saxpy smoke arrays are 4 * smoke_size bytes; the boundary cases below
#: are sized against that.
_SAXPY_NBYTES = 4 * get_workload("saxpy").smoke_size


def _stream_result(tile):
    program = _program("saxpy", 1, stream_tile_bytes=tile)
    result, instance = _run("saxpy", program)
    get_workload("saxpy").check(instance)
    return result


def test_stream_tile_equal_to_array_is_not_streamed():
    """tile == nbytes: one tile per transfer — bit-identical timing and
    counters to the non-streamed model."""
    base, _ = _run("saxpy", _program("saxpy", 1))
    streamed = _stream_result(_SAXPY_NBYTES)
    assert streamed.device_time_ms == base.device_time_ms
    assert streamed.transfers == base.transfers
    assert streamed.transfer_time_s == base.transfer_time_s


def test_stream_tile_larger_than_array_is_not_streamed():
    base, _ = _run("saxpy", _program("saxpy", 1))
    streamed = _stream_result(_SAXPY_NBYTES * 64)
    assert streamed.device_time_ms == base.device_time_ms
    assert streamed.transfers == base.transfers


def test_stream_non_dividing_tile_pays_ceil_tiles():
    """A tile that does not divide the array yields ceil(nbytes/tile)
    tile transfers (remainder tile included), moves exactly the same
    bytes, and the overlap never makes the modelled run slower."""
    base, _ = _run("saxpy", _program("saxpy", 1))
    tile = (_SAXPY_NBYTES * 3) // 8  # 3 tiles per array, last one short
    streamed = _stream_result(tile)
    tiles_per_array = -(-_SAXPY_NBYTES // tile)
    assert tiles_per_array == 3
    # saxpy moves 4 array-sized transfers (x, y h2d; y d2h; x readback)
    # plus 2 sub-tile scalars: 4 * 3 + 2 = 14.
    assert streamed.transfers == base.transfers + 4 * (tiles_per_array - 1)
    assert streamed.bytes_h2d == base.bytes_h2d
    assert streamed.bytes_d2h == base.bytes_d2h
    # tiling adds per-tile latency to the DMA engine's busy time, but
    # the overlap with compute keeps the critical path at or below the
    # whole-array model
    assert streamed.transfer_time_s > base.transfer_time_s
    assert streamed.device_time_ms <= base.device_time_ms


def test_invalid_stream_tile_rejected():
    session = Session(get_workload("saxpy").source)
    for bad in (0, -4096, 1.5):
        with pytest.raises(DeviceBuildError, match="stream_tile_bytes"):
            session.device_build(KernelOverrides(stream_tile_bytes=bad))


# -- datasets larger than device memory ---------------------------------------


def _small_bank_session():
    board = U280Board(hbm_bank_bytes=_SAXPY_NBYTES // 2)
    return Session(
        get_workload("saxpy").source, target=TargetConfig(board=board)
    )


def test_oversized_alloc_without_streaming_is_typed():
    """An array bigger than its HBM bank fails as a typed
    DeviceAllocationError and the message points at streaming mode."""
    session = _small_bank_session()
    program = session.program(KernelOverrides())
    workload = get_workload("saxpy")
    instance = workload.instance(workload.smoke_size)
    with pytest.raises(DeviceAllocationError, match="stream_tile_bytes"):
        program.executor().run(workload.entry, *instance.args)


def test_oversized_dataset_runs_with_streaming():
    """With a streaming tile armed the same oversized dataset allocates,
    runs, and still matches the NumPy reference bit-for-bit."""
    session = _small_bank_session()
    tile = _SAXPY_NBYTES // 8
    program = session.program(KernelOverrides(stream_tile_bytes=tile))
    workload = get_workload("saxpy")
    instance = workload.instance(workload.smoke_size)
    result = program.executor().run(workload.entry, *instance.args)
    workload.check(instance)
    assert result.transfers > 6  # tiled transfers


# -- chaos: faults under multi-CU ---------------------------------------------


@pytest.mark.parametrize("units", CU_COUNTS)
def test_transient_dma_fault_recovers_bit_identical(units):
    """A transient DMA fault on a multi-CU run retries and converges to
    accounting bit-identical to the fault-free run — the shards never
    see a partial transfer."""
    program = _program("saxpy", units)
    clean, _ = _run("saxpy", program)
    plan = FaultPlan(
        [FaultSpec(site="dma_start", transient=True, fail_count=1)]
    )
    faulted, instance = _run("saxpy", program, fault_plan=plan)
    get_workload("saxpy").check(instance)
    assert faulted.report is not None and faulted.report.faults_hit == 1
    assert faulted.device_time_ms == clean.device_time_ms
    assert faulted.kernel_cycles == clean.kernel_cycles
    assert faulted.cu_cycles == clean.cu_cycles
    assert faulted.interpreter_steps == clean.interpreter_steps


@pytest.mark.parametrize("units", CU_COUNTS)
def test_persistent_dma_fault_degrades_typed_never_corrupts(units):
    """A persistent DMA fault raises the site's typed error; the input
    arrays the kernel never consumed are untouched (no partial-shard
    corruption leaks into host state)."""
    program = _program("saxpy", units)
    workload = get_workload("saxpy")
    instance = workload.instance(workload.smoke_size)
    before = [
        np.asarray(arg).copy()
        for arg in instance.args
        if isinstance(arg, np.ndarray)
    ]
    plan = FaultPlan([FaultSpec(site="dma_start", transient=False)])
    with pytest.raises(DmaError):
        program.executor(fault_plan=plan).run(
            workload.entry, *instance.args
        )
    after = [
        np.asarray(arg)
        for arg in instance.args
        if isinstance(arg, np.ndarray)
    ]
    for saved, now in zip(before, after):
        assert saved.tobytes() == now.tobytes(), (
            "a faulted DMA mutated host arrays before raising"
        )


@pytest.mark.parametrize("units", CU_COUNTS)
def test_kernel_hang_under_multi_cu_recovers(units):
    """An injected kernel hang at this CU count recovers through the
    watchdog+retry path with fault-free accounting."""
    program = _program("saxpy", units)
    clean, _ = _run("saxpy", program)
    plan = FaultPlan(
        [
            FaultSpec(
                site="kernel_launch",
                kind="hang",
                transient=True,
                fail_count=1,
            )
        ]
    )
    faulted, instance = _run("saxpy", program, fault_plan=plan)
    get_workload("saxpy").check(instance)
    assert faulted.device_time_ms == clean.device_time_ms
    assert faulted.cu_cycles == clean.cu_cycles

"""The simulated OpenCL command queue (the one clock of a run) and the
device data table (buffers + reference counters)."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.fpga.board import U280Board
from repro.reliability.errors import DeviceAllocationError
from repro.runtime.device_runtime import DeviceDataTable, DeviceRuntimeError
from repro.runtime.kernel_runner import KernelRun
from repro.runtime.opencl import ClCommandQueue, _flow_jitter

BOARD = U280Board()


def _queue(compute_units=1, stream_tile_bytes=None):
    """A queue pricing a build with these two bitstream fields."""
    build = SimpleNamespace(
        compute_units=compute_units, stream_tile_bytes=stream_tile_bytes
    )
    return ClCommandQueue(BOARD, build)


def _run(seconds, cycles=100.0, per_cu=()):
    return KernelRun(cycles=cycles, seconds=seconds, per_cu_cycles=per_cu)


class TestTransfer:
    def test_copies_and_charges_pcie_time(self):
        queue = _queue()
        host = np.arange(8, dtype=np.float32)
        dev = np.zeros(8, dtype=np.float32)
        queue.enqueue_transfer(host, dev, h2d=True)
        assert dev.tobytes() == host.tobytes()
        out = np.zeros(8, dtype=np.float32)
        queue.enqueue_transfer(dev, out, h2d=False)
        assert out.tobytes() == host.tobytes()
        dt = BOARD.dma_time_s(32)
        assert queue.now_s == dt + dt
        assert queue.transfer_time_s == dt + dt
        assert (queue.transfers, queue.bytes_h2d, queue.bytes_d2h) == (2, 32, 32)

    def test_scalar_source(self):
        queue = _queue()
        dev = np.zeros((), dtype=np.float32)
        queue.enqueue_transfer(np.float32(2.5), dev, h2d=True)
        assert dev == np.float32(2.5)
        assert queue.bytes_h2d == 4
        assert queue.now_s == BOARD.dma_time_s(4)

    @pytest.mark.parametrize(
        "source",
        [
            np.arange(8, dtype=np.float64) / 3,  # wider than the buffer
            np.arange(8, dtype=np.int16),
            np.arange(8, dtype=np.float32)[::-1],  # a strided view
            2.5,  # a Python float: 8 bytes once it is an array
        ],
        ids=["float64", "int16", "reversed-view", "python-float"],
    )
    def test_copies_and_charges_as_copyto_and_asarray(self, source):
        """A transfer copies exactly as ``np.copyto`` and charges
        ``np.asarray(source).nbytes``, whatever the source's dtype."""
        want = np.zeros(8, dtype=np.float32)
        np.copyto(want, source)
        nbytes = np.asarray(source).nbytes
        queue = _queue()
        dev = np.zeros(8, dtype=np.float32)
        queue.enqueue_transfer(source, dev, h2d=True)
        queue.enqueue_transfer(source, dev, h2d=False)
        assert dev.tobytes() == want.tobytes()
        assert (queue.bytes_h2d, queue.bytes_d2h) == (nbytes, nbytes)
        dt = BOARD.dma_time_s(nbytes)
        assert queue.now_s == dt + dt

    def test_unsafe_cast_still_raises(self):
        """Only an equal-dtype copy skips ``np.copyto``: a cast it would
        refuse (float to int) still raises and charges nothing."""
        queue = _queue()
        dev = np.zeros(4, dtype=np.int32)
        with pytest.raises(TypeError):
            queue.enqueue_transfer(np.ones(4, np.float64), dev, h2d=True)
        assert (queue.transfers, queue.bytes_h2d, queue.now_s) == (0, 0, 0.0)


class TestLaunch:
    def test_single_cu_charge(self):
        queue = _queue()
        queue.enqueue_task(_run(1e-3, cycles=300.0))
        queue.enqueue_task(_run(2e-3, cycles=600.0))
        overhead = BOARD.kernel_launch_overhead_s
        assert queue.now_s == (overhead + 1e-3) + (overhead + 2e-3)
        assert queue.kernel_time_s == 1e-3 + 2e-3
        assert queue.kernel_cycles == 900.0
        assert queue.launches == 2
        assert queue.cu_cycles == ()

    @pytest.mark.parametrize("units", [2, 4])
    def test_overhead_per_cu_and_cu_cycles_accumulate(self, units):
        queue = _queue(compute_units=units)
        split = tuple(float(10 * (cu + 1)) for cu in range(units))
        queue.enqueue_task(_run(1e-3, cycles=max(split), per_cu=split))
        queue.enqueue_task(_run(1e-3, cycles=max(split), per_cu=split))
        step = BOARD.kernel_launch_overhead_s * units + 1e-3
        assert queue.now_s == step + step
        assert queue.cu_cycles == tuple(2 * c for c in split)
        assert queue.launches == 2


class TestStreaming:
    TILE = 1024

    def _times(self, nbytes):
        full, rem = divmod(nbytes, self.TILE)
        sizes = [self.TILE] * full + ([rem] if rem else [])
        return [BOARD.dma_time_s(size) for size in sizes]

    def test_tile_not_exceeded_is_one_transfer(self):
        queue = _queue(stream_tile_bytes=self.TILE)
        arr = np.zeros(self.TILE // 4, np.float32)
        queue.enqueue_transfer(arr, arr.copy(), h2d=True)
        assert queue.transfers == 1
        assert queue.now_s == BOARD.dma_time_s(self.TILE)

    def test_first_input_tile_on_critical_path(self):
        queue = _queue(stream_tile_bytes=self.TILE)
        nbytes = 3 * self.TILE + 512
        arr = np.zeros(nbytes // 4, np.float32)
        queue.enqueue_transfer(arr, arr.copy(), h2d=True)
        times = self._times(nbytes)
        assert queue.transfers == 4
        assert queue.bytes_h2d == nbytes
        assert queue.transfer_time_s == sum(times)
        assert queue.now_s == times[0]

    @pytest.mark.parametrize("kernel_s", [1e-9, 1.0])
    def test_pending_input_overlaps_next_launch(self, kernel_s):
        queue = _queue(stream_tile_bytes=self.TILE)
        arr = np.zeros(4 * self.TILE // 4, np.float32)
        queue.enqueue_transfer(arr, arr.copy(), h2d=True)
        times = self._times(4 * self.TILE)
        pending = sum(times) - times[0]
        queue.enqueue_task(_run(kernel_s))
        busy = max(kernel_s, pending)
        assert queue.now_s == times[0] + (
            BOARD.kernel_launch_overhead_s + busy
        )
        # the pending input was consumed: finish() adds nothing
        assert queue.finish() == queue.now_s

    def test_output_overlap_bounded_by_busy_window(self):
        queue = _queue(stream_tile_bytes=self.TILE)
        arr = np.zeros(4 * self.TILE // 4, np.float32)
        times = self._times(4 * self.TILE)
        hideable = sum(times) - times[-1]
        window = hideable / 3
        queue.enqueue_task(_run(window))
        start = queue.now_s
        queue.enqueue_transfer(arr, arr.copy(), h2d=False)
        # only `window` of the hideable tiles overlap the kernel
        assert queue.now_s == start + (sum(times) - window)
        # the window is used up: a second output pays in full
        second = queue.now_s
        queue.enqueue_transfer(arr, arr.copy(), h2d=False)
        assert queue.now_s == second + (sum(times) - 0.0)
        assert queue.bytes_d2h == 2 * 4 * self.TILE

    def test_finish_charges_leftover_input(self):
        queue = _queue(stream_tile_bytes=self.TILE)
        arr = np.zeros(2 * self.TILE // 4, np.float32)
        queue.enqueue_transfer(arr, arr.copy(), h2d=True)
        first, second = self._times(2 * self.TILE)
        assert queue.now_s == first
        assert queue.finish() == first + second
        assert queue.finish() == first + second  # idempotent


class TestResult:
    def test_result_assembles_the_run(self):
        queue = _queue(compute_units=2)
        arr = np.zeros(16, np.float32)
        queue.enqueue_transfer(arr, arr.copy(), h2d=True)
        queue.enqueue_task(_run(1e-4, cycles=50.0, per_cu=(50.0, 40.0)))
        queue.enqueue_transfer(arr, arr.copy(), h2d=False)
        result = queue.result(
            "flow:f:1", returned=(7,), interpreter_steps=11, report=None
        )
        assert result.device_time_s == queue.now_s * _flow_jitter("flow:f:1")
        assert result.kernel_time_s == 1e-4
        assert result.transfer_time_s == queue.transfer_time_s
        assert (result.launches, result.transfers) == (1, 2)
        assert (result.bytes_h2d, result.bytes_d2h) == (64, 64)
        assert result.kernel_cycles == 50.0
        assert result.cu_cycles == (50.0, 40.0)
        assert result.returned == (7,)
        assert result.interpreter_steps == 11

    def test_executor_module_still_exports_execution_result(self):
        from repro.runtime import executor, opencl

        assert executor.ExecutionResult is opencl.ExecutionResult


class TestDataTable:
    def test_alloc_and_lookup(self):
        table = DeviceDataTable()
        buf = table.alloc("a", (16,), np.float32, 1)
        assert buf.memory_space == 1 and buf.nbytes == 64
        assert table.lookup("a", 1) is buf

    def test_lookup_of_unknown_identifier_is_typed(self):
        with pytest.raises(DeviceRuntimeError, match="ghost"):
            DeviceDataTable().lookup("ghost", 1)

    def test_invalid_space(self):
        with pytest.raises(ValueError):
            DeviceDataTable().alloc("a", (4,), np.float32, 99)

    def test_oversized_allocation_is_typed(self):
        table = DeviceDataTable(U280Board(hbm_bank_bytes=64))
        with pytest.raises(DeviceAllocationError, match="stream_tile_bytes"):
            table.alloc("big", (32,), np.float32, 1)
        assert "big" not in table.buffers

    def test_oversubscribe_admits_oversized(self):
        table = DeviceDataTable(U280Board(hbm_bank_bytes=64), oversubscribe=True)
        assert table.alloc("big", (32,), np.float32, 1).nbytes == 128

    def test_counter_protocol(self):
        table = DeviceDataTable()
        assert not table.check_exists("a")
        assert table.acquire("a") == 1
        assert table.check_exists("a")
        assert table.acquire("a") == 2
        assert table.release("a") == 1
        assert table.check_exists("a")
        assert table.release("a") == 0
        assert not table.check_exists("a")

    def test_release_without_acquire(self):
        with pytest.raises(DeviceRuntimeError, match="without matching"):
            DeviceDataTable().release("a")

    def test_alloc_reuses_matching_buffer(self):
        table = DeviceDataTable()
        first = table.alloc("a", (8,), np.float32, 1)
        first.data[:] = 7.0
        again = table.alloc("a", (8,), np.float32, 1)
        assert again is first  # resident data survives re-entry
        assert np.all(again.data == 7.0)

    def test_alloc_replaces_on_shape_change(self):
        table = DeviceDataTable()
        first = table.alloc("a", (8,), np.float32, 1)
        second = table.alloc("a", (16,), np.float32, 1)
        assert second is not first
        assert second.data.shape == (16,)

    def test_lookup_space_checked(self):
        table = DeviceDataTable()
        table.alloc("a", (8,), np.float32, 1)
        assert table.lookup("a", 1).data.shape == (8,)
        with pytest.raises(DeviceRuntimeError, match="space"):
            table.lookup("a", 2)


class TestCounterProperty:
    """Property: after any acquire/release trace, check_exists is
    (acquires - releases) > 0 — the paper's counter semantics."""

    def test_random_traces(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @given(st.lists(st.sampled_from(["acq", "rel"]), max_size=60))
        @settings(max_examples=80, deadline=None)
        def run(trace):
            table = DeviceDataTable()
            counter = 0
            for action in trace:
                if action == "acq":
                    table.acquire("x")
                    counter += 1
                else:
                    if counter == 0:
                        with pytest.raises(DeviceRuntimeError):
                            table.release("x")
                    else:
                        table.release("x")
                        counter -= 1
                assert table.check_exists("x") == (counter > 0)

        run()

"""Simulated OpenCL command queue: the one clock of a run.

The generated host C++ (:mod:`repro.backend.host_codegen`) sends every
transfer to ``clEnqueueWriteBuffer``/``clEnqueueReadBuffer`` and every
launch to ``clEnqueueTask`` on one in-order queue.
:class:`ClCommandQueue` is that queue, timed by the
:class:`~repro.fpga.board.U280Board` model.  The compiled flow's
:class:`~repro.runtime.executor.FpgaExecutor` and both hand-written HLS
baselines drive it, so one set of charges prices every run, and the
queue alone assembles its :class:`ExecutionResult`.

Multi-CU builds price each launch as the makespan over compute units
(see :mod:`repro.runtime.kernel_runner`) and pay the enqueue overhead
once per CU.  When the bitstream carries ``stream_tile_bytes`` the queue
models *double-buffered streaming*: arrays larger than the tile move in
tile-sized transfers whose cost overlaps the adjacent kernel's busy
window — the first input tile and the last output tile stay on the
critical path, everything in between hides behind compute (bounded by
the compute window; leftovers are charged, never dropped).  Functional
data movement is unchanged — streaming only re-times it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.fpga.board import U280Board

if TYPE_CHECKING:
    from repro.backend.vitis import Bitstream
    from repro.reliability.report import RunReport
    from repro.runtime.kernel_runner import KernelRun


@dataclass
class ClBuffer:
    """Device buffer placed in a specific memory space (HBM bank/DDR)."""

    name: str
    memory_space: int
    data: np.ndarray

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)


@dataclass
class ExecutionResult:
    """Timing/result summary of one host-program run."""

    device_time_s: float
    kernel_time_s: float
    transfer_time_s: float
    launches: int
    transfers: int
    bytes_h2d: int
    bytes_d2h: int
    kernel_cycles: float
    returned: tuple = ()
    #: accumulated per-compute-unit cycle counts (empty for CU=1 builds)
    cu_cycles: tuple = ()
    #: interpreter steps retired (host program + device kernels) — the
    #: simulator-workload measure the perf-smoke bench tracks across PRs
    interpreter_steps: int = 0
    #: reliability record of the run (faults hit, retries, degradations)
    report: "RunReport | None" = None

    @property
    def device_time_ms(self) -> float:
        return self.device_time_s * 1e3


def _flow_jitter(key: str) -> float:
    """Deterministic run-to-run variability (sub-percent), standing in for
    the measurement noise visible in the paper's Tables 1/2.

    **Determinism is load-bearing.**  The jitter is a pure function of
    the SHA-256 digest of ``key`` — no global RNG, no wall clock, no
    process state — and ``key`` itself is built only from modelled
    values (flow label, entry function, the command queue's simulated
    time).  That is what lets the four engine tiers, retried runs, and
    the CI bench gate all reproduce ``device_time_ms`` bit-for-bit: any
    path that reaches the same simulated queue time gets the *same*
    jitter factor.  The factor is bounded to ±0.4 % of unity
    (``1.0 ± 0.004``); ``tests/runtime/test_flow_jitter.py`` pins both
    the bound and exact digest-derived values, so an accidental
    dependence on ambient state shows up as a test failure, not silent
    bench drift.
    """
    digest = hashlib.sha256(key.encode()).digest()
    unit = int.from_bytes(digest[:8], "big") / 2**64
    return 1.0 + (2.0 * unit - 1.0) * 0.004


class ClCommandQueue:
    """In-order command queue: the clock and counters of one run.

    ``bitstream`` supplies the build's ``compute_units`` and
    ``stream_tile_bytes``.  At 1 CU with streaming off every charge is
    one addition to :attr:`now_s`: a transfer adds its PCIe time, a
    launch adds the enqueue overhead plus the kernel's seconds.
    """

    def __init__(self, board: U280Board, bitstream: "Bitstream"):
        self.board = board
        # N CUs mean N OpenCL enqueues per logical launch
        self._launch_overhead_s = (
            board.kernel_launch_overhead_s * bitstream.compute_units
        )
        #: double-buffered streaming tile — ``None`` disables it
        self._tile = bitstream.stream_tile_bytes
        #: input tiles still streaming in, hidden by the next launch
        self._pending_in_s = 0.0
        #: the last launch's busy window output tiles may hide behind
        self._out_budget_s = 0.0
        #: ``{bytes: seconds}`` of the whole transfers priced so far
        self._dma_seconds: dict[int, float] = {}
        self.now_s = 0.0
        self.kernel_time_s = 0.0
        self.transfer_time_s = 0.0
        self.kernel_cycles = 0.0
        self.cu_cycles: tuple = ()
        self.launches = 0
        self.transfers = 0
        self.bytes_h2d = 0
        self.bytes_d2h = 0

    def enqueue_transfer(self, source, dest: np.ndarray, h2d: bool) -> None:
        """``clEnqueueWriteBuffer`` (``h2d``) or ``clEnqueueReadBuffer``:
        copy ``source`` into ``dest`` and charge ``source``'s bytes."""
        if type(source) is np.ndarray:
            # an equal-dtype copy needs none of copyto's casting checks
            if source.dtype == dest.dtype:
                dest[...] = source
            else:
                np.copyto(dest, source)
            nbytes = source.nbytes
        else:
            np.copyto(dest, source)
            nbytes = int(np.asarray(source).nbytes)
        if h2d:
            self.bytes_h2d += nbytes
        else:
            self.bytes_d2h += nbytes
        tile = self._tile
        if tile is None or nbytes <= tile:
            # a run moves few distinct sizes: each is priced once
            seconds = self._dma_seconds.get(nbytes)
            if seconds is None:
                seconds = self._dma_seconds[nbytes] = self.board.dma_time_s(
                    nbytes
                )
            self.now_s += seconds
            self.transfer_time_s += seconds
            self.transfers += 1
            return
        # Double-buffered streaming: ceil(nbytes/tile) tile transfers,
        # each paying the full PCIe model (tiling is not free — every
        # tile pays its own latency, visible in transfer_time_s).
        full, rem = divmod(nbytes, tile)
        sizes = [tile] * full + ([rem] if rem else [])
        times = [self.board.dma_time_s(size) for size in sizes]
        total = sum(times)
        self.transfer_time_s += total
        self.transfers += len(sizes)
        if h2d:
            # the first tile must land before compute starts; the rest
            # stream in behind it, overlapped with the next launch
            self.now_s += times[0]
            self._pending_in_s += total - times[0]
        else:
            # all but the last tile can stream out during the preceding
            # kernel's busy window; the overlap is bounded by that
            # window and shared between successive outputs
            overlap = min(total - times[-1], self._out_budget_s)
            self._out_budget_s -= overlap
            self.now_s += total - overlap

    def enqueue_task(self, run: "KernelRun") -> None:
        """``clEnqueueTask``: charge one finished kernel execution."""
        self.kernel_cycles += run.cycles
        self.kernel_time_s += run.seconds
        if run.per_cu_cycles:
            if self.cu_cycles:
                self.cu_cycles = tuple(
                    have + new
                    for have, new in zip(self.cu_cycles, run.per_cu_cycles)
                )
            else:
                self.cu_cycles = run.per_cu_cycles
        busy = run.seconds
        if self._pending_in_s:
            # in-flight input tiles stream in while the kernel computes;
            # the longer of the two bounds the launch window
            busy = max(busy, self._pending_in_s)
            self._pending_in_s = 0.0
        self.now_s += self._launch_overhead_s + busy
        # output tiles may hide behind this window (consumed by d2h)
        self._out_budget_s = busy
        self.launches += 1

    def finish(self) -> float:
        """``clFinish``: input tiles still in flight with no kernel left
        to hide behind land on the critical path; returns the clock."""
        if self._pending_in_s:
            self.now_s += self._pending_in_s
            self._pending_in_s = 0.0
        return self.now_s

    def result(
        self,
        jitter_key: str,
        *,
        returned: tuple = (),
        interpreter_steps: int = 0,
        report: "RunReport | None" = None,
    ) -> ExecutionResult:
        """The run's :class:`ExecutionResult`: the finished clock scaled
        by the flow jitter of ``jitter_key``, plus what only the caller
        observes (returned values, interpreter steps, the run report)."""
        device_time_s = self.finish() * _flow_jitter(jitter_key)
        return ExecutionResult(
            device_time_s=device_time_s,
            kernel_time_s=self.kernel_time_s,
            transfer_time_s=self.transfer_time_s,
            launches=self.launches,
            transfers=self.transfers,
            bytes_h2d=self.bytes_h2d,
            bytes_d2h=self.bytes_d2h,
            kernel_cycles=self.kernel_cycles,
            returned=returned,
            cu_cycles=self.cu_cycles,
            interpreter_steps=interpreter_steps,
            report=report,
        )

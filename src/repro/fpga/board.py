"""AMD Xilinx Alveo U280 board model.

All timing/resource constants of the simulated platform live here, in one
place, with the calibration rationale.  The *shape* of the paper's
Tables 1-6 emerges from the mechanisms (memory-bound pipelines, per-launch
implicit transfers, shell-dominated utilisation), while these constants
pin the absolute scale to the authors' testbed (U280 + Vitis 2020.2 +
EPYC 7502 host):

* ``kernel_clock_hz`` — Vitis default kernel clock (300 MHz).
* ``m_axi_access_cycles`` — cycles per non-burst ``m_axi`` access.  The
  flows in the paper do not infer bursts (scalar loads/stores through
  separate gmem bundles), so each access pays the full AXI round trip;
  16 cycles reproduces SAXPY's ~107 ns/element slope.
* PCIe DMA: piecewise-linear; small transfers (per-launch implicit maps,
  SGESL) see ~62 MB/s effective, large streaming transfers (SAXPY's three
  bulk arrays) ~6.4 GB/s.
* ``kernel_launch_overhead_s`` — OpenCL enqueue+dispatch per launch.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class MemorySpec:
    """One device memory space (HBM bank or DDR channel)."""

    name: str
    size_bytes: int
    bandwidth_bytes_per_s: float


@dataclass(frozen=True)
class U280Resources:
    """Total programmable resources of the U280 (xcu280 device)."""

    luts: int = 1_303_680
    ffs: int = 2_607_360
    bram_36k: int = 2_016
    uram: int = 960
    dsp: int = 9_024


@dataclass
class U280Board:
    """The simulated board: memories, clocks, transfer model."""

    resources: U280Resources = field(default_factory=U280Resources)
    kernel_clock_hz: float = 300e6
    #: memory spaces: index 0 is host DRAM; 1..16 HBM banks; 17 DDR.
    num_hbm_banks: int = 16
    #: per-bank HBM capacity (256 MiB on the U280).  Tests shrink this
    #: to exercise the datasets-larger-than-device-memory path that the
    #: streaming DMA mode exists for.
    hbm_bank_bytes: int = 256 * 2**20

    # -- calibrated timing constants (see module docstring) --------------------
    m_axi_access_cycles: int = 16
    pipeline_depth_cycles: int = 60
    kernel_launch_overhead_s: float = 2e-6
    #: PCIe DMA, two regimes (both latency + bytes/bw):
    #:  * small transfers (< 16 KiB) go through the pinned-small-buffer
    #:    path: ~160 MB/s effective — this is what each SGESL launch pays
    #:    for its per-k implicit maps and what makes Table 2 scale O(N^2);
    #:  * larger transfers use the XDMA engine: ~30 us setup + 6.4 GB/s,
    #:    the regime SAXPY's bulk arrays hit (Table 1).
    dma_small_latency_s: float = 0.44e-6
    dma_small_bw_bytes_per_s: float = 160e6
    dma_large_latency_s: float = 30e-6
    dma_large_bw_bytes_per_s: float = 6.4e9
    dma_small_threshold_bytes: int = 16 * 1024

    def memory_spaces(self) -> list[MemorySpec]:
        return [
            self.validate_memory_space(space)
            for space in range(self.num_hbm_banks + 2)
        ]

    def validate_memory_space(self, space: int) -> MemorySpec:
        """The spec of memory space ``space``, built alone (a fresh
        device buffer asks for one)."""
        ddr = self.num_hbm_banks + 1
        if not 0 <= space <= ddr:
            raise ValueError(f"memory space {space} out of range 0..{ddr}")
        if space == 0:
            return MemorySpec("host", 220 * 2**30, 25e9)
        if space == ddr:
            return MemorySpec("DDR", 32 * 2**30, 19.2e9)
        return MemorySpec(f"HBM[{space - 1}]", self.hbm_bank_bytes, 14.4e9)

    # -- timing model -----------------------------------------------------------------

    def cycles_to_seconds(self, cycles: float) -> float:
        return cycles / self.kernel_clock_hz

    def dma_time_s(self, num_bytes: int) -> float:
        """Host<->device transfer time (two-regime PCIe model)."""
        if num_bytes <= 0:
            return self.dma_small_latency_s
        if num_bytes < self.dma_small_threshold_bytes:
            return (
                self.dma_small_latency_s
                + num_bytes / self.dma_small_bw_bytes_per_s
            )
        return (
            self.dma_large_latency_s
            + num_bytes / self.dma_large_bw_bytes_per_s
        )

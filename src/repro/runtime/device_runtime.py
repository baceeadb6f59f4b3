"""Device data-region runtime: the buffer table and the reference counter
the paper lowers to.

``device.data_acquire`` increments a per-identifier counter,
``device.data_release`` decrements it and ``device.data_check_exists``
tests counter > 0 (paper §3).  The table also owns the device buffers:
``device.alloc`` places one in a memory space (reusing a resident
allocation of the same shape, dtype and space) and ``device.lookup``
finds it, checking the space.  Buffers outlive the counter reaching zero
(they are reused on re-entry), matching how the generated host code
keeps ``cl_mem`` objects alive for the process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.fpga.board import U280Board
from repro.reliability.errors import DeviceAllocationError, DeviceRuntimeError
from repro.runtime.opencl import ClBuffer

__all__ = ["DeviceDataTable", "DeviceRuntimeError"]


@dataclass
class DeviceDataTable:
    """Identifier -> (device buffer, reference counter)."""

    board: U280Board = field(default_factory=U280Board)
    #: admit buffers larger than their memory space — armed by the
    #: executor when double-buffered streaming is on (only one tile is
    #: resident at a time in that model)
    oversubscribe: bool = False
    buffers: dict[str, ClBuffer] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)

    # -- counter protocol -----------------------------------------------------------

    def check_exists(self, name: str) -> bool:
        return self.counters.get(name, 0) > 0

    def acquire(self, name: str) -> int:
        self.counters[name] = self.counters.get(name, 0) + 1
        return self.counters[name]

    def release(self, name: str) -> int:
        count = self.counters.get(name, 0)
        if count <= 0:
            raise DeviceRuntimeError(
                f"device.data_release of {name!r} without matching acquire"
            )
        self.counters[name] = count - 1
        return self.counters[name]

    # -- buffer table -----------------------------------------------------------------

    def alloc(
        self, name: str, shape: tuple[int, ...], dtype, memory_space: int
    ) -> ClBuffer:
        shape = tuple(shape)
        existing = self.buffers.get(name)
        if (
            existing is not None
            and existing.data.shape == shape
            and existing.data.dtype == np.dtype(dtype)
            and existing.memory_space == memory_space
        ):
            return existing  # reuse resident allocation
        spec = self.board.validate_memory_space(memory_space)
        nbytes = math.prod(shape) * np.dtype(dtype).itemsize
        if nbytes > spec.size_bytes and not self.oversubscribe:
            raise DeviceAllocationError(
                f"device.alloc {name!r} does not fit its memory space: "
                f"{nbytes} bytes exceeds {spec.name}; datasets larger than "
                "device memory need the double-buffered streaming mode "
                "(KernelOverrides.stream_tile_bytes)",
                context=f"buffer={name}",
            )
        buffer = ClBuffer(name, memory_space, np.zeros(shape, dtype=dtype))
        self.buffers[name] = buffer
        return buffer

    def lookup(self, name: str, memory_space: int) -> ClBuffer:
        buffer = self.buffers.get(name)
        if buffer is None:
            raise DeviceRuntimeError(
                f"device.lookup of {name!r}: no device buffer was allocated"
            )
        if buffer.memory_space != memory_space:
            raise DeviceRuntimeError(
                f"buffer {name!r} lives in space {buffer.memory_space}, "
                f"lookup asked for {memory_space}"
            )
        return buffer

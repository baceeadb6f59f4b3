"""The ``device`` dialect — this paper's contribution.

Abstracts host/device interaction so the host side maps 1:1 onto OpenCL
driver calls (paper §3):

* data management: ``device.alloc``, ``device.lookup``,
  ``device.data_check_exists``, ``device.data_acquire``,
  ``device.data_release`` — device memory is tracked by a *string
  identifier* plus *memory space* (HBM bank / DDR channel on the U280);
* kernels: ``device.kernel_create`` (returns ``!device.kernelhandle``),
  ``device.kernel_launch`` (asynchronous), ``device.kernel_wait``.

Interpreter implementations are **not** registered here: they live in
:mod:`repro.runtime.executor`, which binds them to the simulated board's
buffer table and command queue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.ir.attributes import IntegerAttr, StringAttr, SymbolRefAttr
from repro.ir.core import Block, Dialect, IRError, Operation, Region, SSAValue
from repro.ir.traits import IsolatedFromAbove
from repro.ir.types import MemRefType, TypeAttribute, i1


@dataclass(frozen=True)
class KernelHandleType(TypeAttribute):
    """Opaque handle returned by ``device.kernel_create``."""

    name = "device.kernelhandle"

    def print(self) -> str:
        return "!device.kernelhandle"


kernel_handle = KernelHandleType()


class _IdentifiedOp(Operation):
    """Shared accessors for ops carrying ``name``/``memory_space`` attrs."""

    @property
    def identifier(self) -> str:
        attr = self.attributes["name"]
        assert isinstance(attr, StringAttr)
        return attr.value

    @property
    def memory_space(self) -> int:
        attr = self.attributes["memory_space"]
        assert isinstance(attr, IntegerAttr)
        return attr.value


class AllocOp(_IdentifiedOp):
    """``device.alloc`` — allocate device memory in a memory space.

    Operands are the dynamic sizes; the result is a memref whose type
    carries the device memory space, e.g.
    ``memref<100xf64, 1 : i32>`` (paper, Listing 2).
    """

    name = "device.alloc"

    def __init__(
        self,
        result_type: MemRefType,
        dynamic_sizes: Sequence[SSAValue] = (),
        *,
        identifier: str,
        memory_space: int,
    ):
        if result_type.memory_space != memory_space:
            raise IRError(
                "device.alloc: result memref memory space must match the "
                "memory_space attribute"
            )
        super().__init__(
            operands=dynamic_sizes,
            result_types=[result_type],
            attributes={
                "name": StringAttr(identifier),
                "memory_space": IntegerAttr.i32(memory_space),
            },
        )


class LookupOp(_IdentifiedOp):
    """``device.lookup`` — find the memref previously allocated under an
    identifier in a memory space."""

    name = "device.lookup"

    def __init__(
        self, result_type: MemRefType, *, identifier: str, memory_space: int
    ):
        super().__init__(
            result_types=[result_type],
            attributes={
                "name": StringAttr(identifier),
                "memory_space": IntegerAttr.i32(memory_space),
            },
        )


class DataCheckExistsOp(Operation):
    """``device.data_check_exists`` — i1: is the identifier resident?

    Lowered onto the data-region reference counter: true iff counter > 0
    (paper §3, implicit-map handling).
    """

    name = "device.data_check_exists"

    def __init__(self, *, identifier: str):
        super().__init__(
            result_types=[i1],
            attributes={"name": StringAttr(identifier)},
        )

    @property
    def identifier(self) -> str:
        attr = self.attributes["name"]
        assert isinstance(attr, StringAttr)
        return attr.value


class DataAcquireOp(_IdentifiedOp):
    """``device.data_acquire`` — increment the identifier's region counter."""

    name = "device.data_acquire"

    def __init__(self, *, identifier: str, memory_space: int):
        super().__init__(
            attributes={
                "name": StringAttr(identifier),
                "memory_space": IntegerAttr.i32(memory_space),
            }
        )


class DataReleaseOp(_IdentifiedOp):
    """``device.data_release`` — decrement the identifier's region counter."""

    name = "device.data_release"

    def __init__(self, *, identifier: str, memory_space: int):
        super().__init__(
            attributes={
                "name": StringAttr(identifier),
                "memory_space": IntegerAttr.i32(memory_space),
            }
        )


class KernelCreateOp(Operation):
    """``device.kernel_create`` — define a kernel over device buffers.

    Initially (right after *lower omp target region*) the region holds the
    kernel body; the extraction pass moves the body into a separate
    ``target = "fpga"`` module and records the callee in the
    ``device_function`` attribute, leaving the region empty — exactly the
    two states shown in the paper's Listing 2.
    """

    name = "device.kernel_create"
    traits = (IsolatedFromAbove,)

    def __init__(
        self,
        args: Sequence[SSAValue],
        body: Region | None = None,
        device_function: str | None = None,
    ):
        if body is None:
            body = Region([Block([a.type for a in args])])
        attributes = {}
        if device_function is not None:
            attributes["device_function"] = SymbolRefAttr(device_function)
        super().__init__(
            operands=args,
            result_types=[kernel_handle],
            regions=[body],
            attributes=attributes,
        )

    @property
    def device_function(self) -> str | None:
        attr = self.attributes.get("device_function")
        return attr.symbol if isinstance(attr, SymbolRefAttr) else None

    @property
    def body(self) -> Block:
        return self.regions[0].block

    @property
    def is_extracted(self) -> bool:
        return self.device_function is not None and not self.body.ops

    def verify_(self) -> None:
        body = self.regions[0].block
        if body.ops and len(body.args) != len(self.operands):
            raise IRError(
                "device.kernel_create: inline region must have one block "
                "arg per kernel argument"
            )


class KernelLaunchOp(Operation):
    """``device.kernel_launch`` — asynchronous launch via handle."""

    name = "device.kernel_launch"

    def __init__(self, handle: SSAValue):
        super().__init__(operands=[handle])

    @property
    def handle(self) -> SSAValue:
        return self.operands[0]


class KernelWaitOp(Operation):
    """``device.kernel_wait`` — block until the kernel completes."""

    name = "device.kernel_wait"

    def __init__(self, handle: SSAValue):
        super().__init__(operands=[handle])

    @property
    def handle(self) -> SSAValue:
        return self.operands[0]


Device = Dialect(
    "device",
    [
        AllocOp, LookupOp, DataCheckExistsOp, DataAcquireOp, DataReleaseOp,
        KernelCreateOp, KernelLaunchOp, KernelWaitOp,
    ],
)

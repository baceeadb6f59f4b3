"""MemRef dialect: allocation, load/store and host<->device DMA.

Memrefs are backed by NumPy arrays in the interpreter.  Rank-0 memrefs
model Fortran scalars.  ``memref.dma_start``/``memref.wait`` are the ops
the paper uses to move data between host memory and device memory spaces.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.ir.core import Dialect, IRError, Operation, SSAValue
from repro.ir.interpreter import Interpreter, impl
from repro.ir.traits import MemoryRead, MemoryWrite
from repro.ir.types import (
    DYNAMIC,
    FloatType,
    IndexType,
    IntegerType,
    MemRefType,
    TypeAttribute,
    i32,
    index,
)
from repro.reliability.errors import SubscriptError


def element_dtype(ty: TypeAttribute) -> np.dtype:
    """NumPy dtype backing a memref element type."""
    if isinstance(ty, FloatType):
        return np.dtype(np.float32 if ty.width == 32 else np.float64)
    if isinstance(ty, IntegerType):
        if ty.width == 1:
            return np.dtype(np.bool_)
        return np.dtype(f"int{max(8, ty.width)}")
    if isinstance(ty, IndexType):
        return np.dtype(np.int64)
    raise IRError(f"no dtype for element type {ty.print()}")


class Alloc(Operation):
    """``memref.alloc`` with one operand per dynamic dimension."""

    name = "memref.alloc"

    def __init__(self, result_type: MemRefType, dynamic_sizes: Sequence[SSAValue] = ()):
        expected = sum(1 for s in result_type.shape if s == DYNAMIC)
        if expected != len(dynamic_sizes):
            raise IRError(
                f"memref.alloc: {expected} dynamic sizes required, got "
                f"{len(dynamic_sizes)}"
            )
        super().__init__(operands=dynamic_sizes, result_types=[result_type])

    @property
    def memref_type(self) -> MemRefType:
        ty = self.results[0].type
        assert isinstance(ty, MemRefType)
        return ty


class Alloca(Alloc):
    """Stack allocation; same structure as alloc."""

    name = "memref.alloca"


class Dealloc(Operation):
    name = "memref.dealloc"

    def __init__(self, memref: SSAValue):
        super().__init__(operands=[memref])


class Load(Operation):
    """``memref.load %m[%i, %j]``."""

    name = "memref.load"
    traits = (MemoryRead,)

    def __init__(self, memref: SSAValue, indices: Sequence[SSAValue] = ()):
        ty = memref.type
        if not isinstance(ty, MemRefType):
            raise IRError("memref.load requires a memref operand")
        if len(indices) != ty.rank:
            raise IRError(
                f"memref.load: rank {ty.rank} memref indexed with "
                f"{len(indices)} indices"
            )
        super().__init__(
            operands=[memref, *indices], result_types=[ty.element_type]
        )

    @property
    def memref(self) -> SSAValue:
        return self.operands[0]

    @property
    def indices(self) -> tuple[SSAValue, ...]:
        return self.operands[1:]


class Store(Operation):
    """``memref.store %v, %m[%i, %j]``."""

    name = "memref.store"
    traits = (MemoryWrite,)

    def __init__(
        self, value: SSAValue, memref: SSAValue, indices: Sequence[SSAValue] = ()
    ):
        ty = memref.type
        if not isinstance(ty, MemRefType):
            raise IRError("memref.store requires a memref operand")
        if len(indices) != ty.rank:
            raise IRError(
                f"memref.store: rank {ty.rank} memref indexed with "
                f"{len(indices)} indices"
            )
        super().__init__(operands=[value, memref, *indices])

    @property
    def value(self) -> SSAValue:
        return self.operands[0]

    @property
    def memref(self) -> SSAValue:
        return self.operands[1]

    @property
    def indices(self) -> tuple[SSAValue, ...]:
        return self.operands[2:]


class Cast(Operation):
    """``memref.cast`` — static <-> dynamic shape conversion (layout and
    element type must agree).  Inserted at call sites where a statically
    shaped actual argument is passed to a dynamically shaped dummy."""

    name = "memref.cast"

    def __init__(self, source: SSAValue, result_type: MemRefType):
        src_ty = source.type
        if not isinstance(src_ty, MemRefType):
            raise IRError("memref.cast requires a memref operand")
        if src_ty.element_type != result_type.element_type:
            raise IRError("memref.cast cannot change the element type")
        if src_ty.rank != result_type.rank:
            raise IRError("memref.cast cannot change the rank")
        super().__init__(operands=[source], result_types=[result_type])


class Dim(Operation):
    """``memref.dim`` — runtime extent of a dimension."""

    name = "memref.dim"

    def __init__(self, memref: SSAValue, dim: SSAValue):
        super().__init__(operands=[memref, dim], result_types=[index])


class Copy(Operation):
    """``memref.copy %src, %dst`` (same shape)."""

    name = "memref.copy"
    traits = (MemoryRead, MemoryWrite)

    def __init__(self, source: SSAValue, dest: SSAValue):
        super().__init__(operands=[source, dest])


class DmaStart(Operation):
    """Asynchronous copy between memory spaces (host <-> device).

    Returns an ``i32`` DMA tag consumed by :class:`DmaWait`.  This is a
    simplified form of MLIR's ``memref.dma_start`` retaining the semantics
    the paper relies on: the copy direction is implied by the memory
    spaces of the two memrefs.
    """

    name = "memref.dma_start"
    traits = (MemoryRead, MemoryWrite)

    def __init__(self, source: SSAValue, dest: SSAValue):
        super().__init__(operands=[source, dest], result_types=[i32])

    @property
    def source(self) -> SSAValue:
        return self.operands[0]

    @property
    def dest(self) -> SSAValue:
        return self.operands[1]


class DmaWait(Operation):
    """Blocks until the DMA identified by the tag completes."""

    name = "memref.wait"

    def __init__(self, tag: SSAValue):
        super().__init__(operands=[tag])


MemRef = Dialect(
    "memref",
    [Alloc, Alloca, Dealloc, Load, Store, Cast, Dim, Copy, DmaStart, DmaWait],
)


# -- interpreter implementations ---------------------------------------------------


def _allocate(op: Operation, sizes: list[int]) -> np.ndarray:
    ty = op.results[0].type
    assert isinstance(ty, MemRefType)
    shape = []
    dynamic_iter = iter(sizes)
    for extent in ty.shape:
        shape.append(next(dynamic_iter) if extent == DYNAMIC else extent)
    return np.zeros(tuple(shape), dtype=element_dtype(ty.element_type))


@impl("memref.alloc")
def _run_alloc(interp: Interpreter, op: Operation, env: dict):
    interp.set_results(op, env, [_allocate(op, interp.operand_values(op, env))])
    return None


impl("memref.alloca")(_run_alloc)


@impl("memref.dealloc")
def _run_dealloc(interp: Interpreter, op: Operation, env: dict):
    return None


@impl("memref.load")
def _run_load(interp: Interpreter, op: Operation, env: dict):
    values = interp.operand_values(op, env)
    array, indices = values[0], values[1:]
    try:
        element = (
            array[tuple(int(i) for i in indices)] if indices else array[()]
        )
    except IndexError as error:
        raise SubscriptError(f"memref.load: {error}") from error
    if isinstance(element, np.floating):
        element = float(element) if array.dtype != np.float32 else element
    interp.set_results(op, env, [element])
    return None


@impl("memref.store")
def _run_store(interp: Interpreter, op: Operation, env: dict):
    values = interp.operand_values(op, env)
    value, array, indices = values[0], values[1], values[2:]
    if indices:
        try:
            array[tuple(int(i) for i in indices)] = value
        except IndexError as error:
            raise SubscriptError(f"memref.store: {error}") from error
    else:
        array[()] = value
    return None


@impl("memref.cast")
def _run_cast(interp: Interpreter, op: Operation, env: dict):
    interp.set_results(op, env, [interp.get(env, op.operands[0])])
    return None


@impl("memref.dim")
def _run_dim(interp: Interpreter, op: Operation, env: dict):
    array, dim = interp.operand_values(op, env)
    interp.set_results(op, env, [int(array.shape[int(dim)])])
    return None


@impl("memref.copy")
def _run_copy(interp: Interpreter, op: Operation, env: dict):
    source, dest = interp.operand_values(op, env)
    np.copyto(dest, source)
    return None


@impl("memref.dma_start")
def _run_dma_start(interp: Interpreter, op: Operation, env: dict):
    # Functionally the DMA completes immediately.  The executor driving a
    # host program (if any) adds its fault gate and transfer charge.
    source, dest = interp.operand_values(op, env)
    executor = interp.host_executor
    if executor is None:
        np.copyto(dest, source)
    else:
        h2d = op.operands[0].type.memory_space == 0
        executor.dma_start(source, dest, h2d)
    interp.set_results(op, env, [0])
    return None


@impl("memref.wait")
def _run_dma_wait(interp: Interpreter, op: Operation, env: dict):
    executor = interp.host_executor
    if executor is not None:
        executor.dma_wait()
    return None


# -- compiled-form emitters ---------------------------------------------------
#
# Load/store dominate interpreted kernel bodies, so they get rank-
# specialized closures; the DMA ops run once per transfer in the host
# driver loop (SGESL n=512: ~6.6k each), so they get closures too.

from repro.ir.compile import FnCompiler, compiled_for


@compiled_for("memref.load")
def _emit_load(op: Operation, ctx: FnCompiler):
    mem_i = ctx.slot(op.operands[0])
    idx = tuple(ctx.slot_list(op.operands[1:]))
    res_i = ctx.slot(op.results[0])
    f32_dtype = np.float32

    if not idx:
        def run(interp, frame):
            array = frame[mem_i]
            element = array[()]
            if isinstance(element, np.floating):
                if array.dtype != f32_dtype:
                    element = float(element)
            frame[res_i] = element
        return run

    if len(idx) == 1:
        (i0,) = idx

        def run(interp, frame):
            array = frame[mem_i]
            try:
                element = array[int(frame[i0])]
            except IndexError as error:
                raise SubscriptError(f"memref.load: {error}") from error
            if isinstance(element, np.floating):
                if array.dtype != f32_dtype:
                    element = float(element)
            frame[res_i] = element
        return run

    def run(interp, frame):
        array = frame[mem_i]
        try:
            element = array[tuple(int(frame[i]) for i in idx)]
        except IndexError as error:
            raise SubscriptError(f"memref.load: {error}") from error
        if isinstance(element, np.floating):
            if array.dtype != f32_dtype:
                element = float(element)
        frame[res_i] = element
    return run


@compiled_for("memref.store")
def _emit_store(op: Operation, ctx: FnCompiler):
    val_i = ctx.slot(op.operands[0])
    mem_i = ctx.slot(op.operands[1])
    idx = tuple(ctx.slot_list(op.operands[2:]))

    if not idx:
        def run(interp, frame):
            frame[mem_i][()] = frame[val_i]
        return run

    if len(idx) == 1:
        (i0,) = idx

        def run(interp, frame):
            try:
                frame[mem_i][int(frame[i0])] = frame[val_i]
            except IndexError as error:
                raise SubscriptError(f"memref.store: {error}") from error
        return run

    def run(interp, frame):
        try:
            frame[mem_i][tuple(int(frame[i]) for i in idx)] = frame[val_i]
        except IndexError as error:
            raise SubscriptError(f"memref.store: {error}") from error
    return run


@compiled_for("memref.cast")
def _emit_cast(op: Operation, ctx: FnCompiler):
    src_i = ctx.slot(op.operands[0])
    res_i = ctx.slot(op.results[0])

    def run(interp, frame):
        frame[res_i] = frame[src_i]
    return run


@compiled_for("memref.dim")
def _emit_dim(op: Operation, ctx: FnCompiler):
    mem_i, dim_i = (ctx.slot(o) for o in op.operands)
    res_i = ctx.slot(op.results[0])

    def run(interp, frame):
        frame[res_i] = int(frame[mem_i].shape[int(frame[dim_i])])
    return run


def _emit_alloc(op: Operation, ctx: FnCompiler):
    ty = op.results[0].type
    assert isinstance(ty, MemRefType)
    dtype = element_dtype(ty.element_type)
    size_slots = iter(ctx.slot_list(op.operands))
    # dynamic extents hold the operand slot; static ones -extent - 1
    shape_spec = tuple(
        next(size_slots) if extent == DYNAMIC else -extent - 1
        for extent in ty.shape
    )
    res_i = ctx.slot(op.results[0])
    if all(entry < 0 for entry in shape_spec):
        shape = tuple(-entry - 1 for entry in shape_spec)

        def run(interp, frame):
            frame[res_i] = np.zeros(shape, dtype=dtype)
        return run

    def run(interp, frame):
        frame[res_i] = np.zeros(
            tuple(
                int(frame[entry]) if entry >= 0 else -entry - 1
                for entry in shape_spec
            ),
            dtype=dtype,
        )
    return run


compiled_for("memref.alloc")(_emit_alloc)
compiled_for("memref.alloca")(_emit_alloc)


@compiled_for("memref.dealloc")
def _emit_dealloc(op: Operation, ctx: FnCompiler):
    return None


@compiled_for("memref.copy")
def _emit_copy(op: Operation, ctx: FnCompiler):
    src_i, dst_i = (ctx.slot(o) for o in op.operands)

    def run(interp, frame):
        np.copyto(frame[dst_i], frame[src_i])
    return run


@compiled_for("memref.dma_start")
def _emit_dma_start(op: Operation, ctx: FnCompiler):
    src_i, dst_i = (ctx.slot(o) for o in op.operands)
    res_i = ctx.slot(op.results[0])
    h2d = op.operands[0].type.memory_space == 0

    def run(interp, frame):
        executor = interp.host_executor
        if executor is None:
            np.copyto(frame[dst_i], frame[src_i])
        else:
            executor.dma_start(frame[src_i], frame[dst_i], h2d)
        frame[res_i] = 0
    return run


@compiled_for("memref.wait")
def _emit_dma_wait(op: Operation, ctx: FnCompiler):
    def run(interp, frame):
        executor = interp.host_executor
        if executor is not None:
            executor.dma_wait()
    return run

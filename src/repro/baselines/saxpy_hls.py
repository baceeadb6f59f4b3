"""Hand-written Vitis HLS SAXPY baseline (paper §4, Tables 1/3/5).

The kernel mirrors hand-written HLS C:

.. code-block:: c

    void saxpy(float a, float *x, float *y, int n) {
      for (int i = 0; i < n; i += 10) {
    #pragma HLS PIPELINE II=1
    #pragma HLS UNROLL factor=10
        for (int j = 0; j < 10; ++j) y[i+j] += a * x[i+j];
      }
      /* remainder loop */
    }

i.e. the same partially-unrolled pipelined structure the Fortran OpenMP
flow generates from ``parallel do simd simdlen(10)``.  The multiply-add
here is written so Vitis does *not* fuse it (separate temporaries), which
is why Table 3 reports identical resources for both flows.

The host driver mirrors the OpenMP data movement (a, x, y to device; x, y
back) on the same buffer table and command queue the generated host code
targets, so the runtime comparison isolates the kernel path — matching
the sub-1 % deltas of Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backend.vitis import Bitstream, VitisCompiler
from repro.baselines.builder import add_kernel, mac, new_device_module
from repro.dialects import arith, hls, memref, scf
from repro.fpga.board import U280Board
from repro.ir.builder import Builder
from repro.ir.types import DYNAMIC, MemRefType, f32, i32, index
from repro.runtime.device_runtime import DeviceDataTable
from repro.runtime.kernel_runner import KernelRunner
from repro.runtime.opencl import ClCommandQueue, ExecutionResult

KERNEL_NAME = "saxpy_hls"


def build_saxpy_module(unroll: int = 10):
    """Device module holding the hand-written SAXPY kernel."""
    module = new_device_module()
    a_ty = MemRefType(f32, [], 1)
    vec_ty = MemRefType(f32, [DYNAMIC], 1)
    n_ty = MemRefType(i32, [], 1)
    fn, b = add_kernel(module, KERNEL_NAME, [a_ty, vec_ty, vec_ty, n_ty])
    a_arg, x_arg, y_arg, n_arg = fn.body.args
    a_arg.name_hint, x_arg.name_hint = "a", "x"
    y_arg.name_hint, n_arg.name_hint = "y", "n"

    a_val = b.insert(memref.Load(a_arg, [])).results[0]
    n_i32 = b.insert(memref.Load(n_arg, [])).results[0]
    n_idx = b.insert(arith.IndexCast(n_i32, index)).results[0]

    zero = b.insert(arith.Constant.index(0)).results[0]
    one = b.insert(arith.Constant.index(1)).results[0]
    factor = b.insert(arith.Constant.index(unroll)).results[0]
    main_trips = b.insert(arith.DivSI(n_idx, factor)).results[0]
    main_ub = b.insert(arith.MulI(main_trips, factor)).results[0]

    main = b.insert(scf.For(zero, main_ub, factor))
    inner = Builder.at_end(main.body)
    ii = inner.insert(arith.Constant.int(1, 32)).results[0]
    inner.insert(hls.PipelineOp(ii))
    inner.insert(hls.UnrollOp(unroll))
    for j in range(unroll):
        off = inner.insert(arith.Constant.index(j)).results[0]
        idx = inner.insert(arith.AddI(main.induction_var, off)).results[0]
        x_val = inner.insert(memref.Load(x_arg, [idx])).results[0]
        y_val = inner.insert(memref.Load(y_arg, [idx])).results[0]
        new_y = mac(inner, y_val, a_val, x_val, clang_idiom=False)
        inner.insert(memref.Store(new_y, y_arg, [idx]))
    inner.insert(scf.Yield())

    remainder = b.insert(scf.For(main_ub, n_idx, one))
    rem = Builder.at_end(remainder.body)
    x_val = rem.insert(memref.Load(x_arg, [remainder.induction_var])).results[0]
    y_val = rem.insert(memref.Load(y_arg, [remainder.induction_var])).results[0]
    new_y = mac(rem, y_val, a_val, x_val, clang_idiom=False)
    rem.insert(memref.Store(new_y, y_arg, [remainder.induction_var]))
    rem.insert(scf.Yield())

    from repro.dialects import func as func_d

    b.insert(func_d.ReturnOp())
    return module


@dataclass
class HandwrittenSaxpy:
    """Compiled baseline: bitstream + a hand-written-style host driver."""

    board: U280Board
    bitstream: Bitstream

    @staticmethod
    def build(board: U280Board | None = None, unroll: int = 10) -> "HandwrittenSaxpy":
        board = board or U280Board()
        module = build_saxpy_module(unroll)
        return HandwrittenSaxpy(board, VitisCompiler(board).compile(module))

    def run(self, a: float, x: np.ndarray, y: np.ndarray) -> ExecutionResult:
        """One SAXPY offload, mirroring the OpenMP transfer pattern."""
        n = len(x)
        table = DeviceDataTable(self.board)
        queue = ClCommandQueue(self.board, self.bitstream)
        runner = KernelRunner(self.bitstream)
        dev_a, dev_x, dev_y, dev_n = (
            table.alloc(name, shape, dtype, 1).data
            for name, shape, dtype in (
                ("a", (), np.float32),
                ("x", (n,), np.float32),
                ("y", (n,), np.float32),
                ("n", (), np.int32),
            )
        )
        # host -> device (a, x, y map "to"; n via axilite register write)
        for host, dev in ((np.float32(a), dev_a), (x, dev_x), (y, dev_y)):
            queue.enqueue_transfer(host, dev, h2d=True)
        dev_n[()] = n
        queue.enqueue_task(runner.run(KERNEL_NAME, dev_a, dev_x, dev_y, dev_n))
        # device -> host (x, y map "from" under tofrom)
        for dev, host in ((dev_x, x), (dev_y, y)):
            queue.enqueue_transfer(dev, host, h2d=False)
        return queue.result(f"hand-hls:saxpy:{n}")

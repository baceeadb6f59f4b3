"""Hand-written Vitis HLS SGESL baseline (paper §4, Tables 2/4/6).

The offloaded piece is the inner update loop of the LINPACK SGESL
back-substitution (paper Listing 6): ``b(j) = b(j) + t*a(j)`` for
``j = k+1, n``.  The hand-written HLS C version:

.. code-block:: c

    void sgesl_update(float *b, float *a, float t, int k, int n) {
      for (int j = k; j < n; ++j) {
    #pragma HLS PIPELINE II=1
        b[j] += t * a[j];
      }
    }

Written this way, AMD's Clang frontend emits the fused multiply-add
pattern Vitis recognises, so the MAC binds to DSP slices — the Fortran
flow's IR misses the pattern and builds the MAC from LUTs.  That is the
Table 4 difference (DSP 0.23 % vs 0.10 %) the paper analyses.

The host driver performs the same per-``k`` data movement the OpenMP
implicit maps cause (b, a, t, k, n to device; b, a back every launch),
which is what makes Table 2 scale quadratically.  It drives the same
buffer table and command queue the generated host code targets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backend.vitis import Bitstream, VitisCompiler
from repro.baselines.builder import add_kernel, mac, new_device_module
from repro.dialects import arith, func as func_d, hls, memref, scf
from repro.fpga.board import U280Board
from repro.ir.builder import Builder
from repro.ir.types import DYNAMIC, MemRefType, f32, i32, index
from repro.runtime.device_runtime import DeviceDataTable
from repro.runtime.kernel_runner import KernelRunner
from repro.runtime.opencl import ClCommandQueue, ExecutionResult

KERNEL_NAME = "sgesl_update_hls"


def build_sgesl_module():
    """Device module with the hand-written SGESL update kernel."""
    module = new_device_module()
    vec_ty = MemRefType(f32, [DYNAMIC], 1)
    scalar_f = MemRefType(f32, [], 1)
    scalar_i = MemRefType(i32, [], 1)
    fn, b = add_kernel(
        module, KERNEL_NAME, [vec_ty, vec_ty, scalar_f, scalar_i, scalar_i]
    )
    b_arg, a_arg, t_arg, k_arg, n_arg = fn.body.args
    for arg, hint in zip(fn.body.args, ("b", "a", "t", "k", "n")):
        arg.name_hint = hint

    t_val = b.insert(memref.Load(t_arg, [])).results[0]
    k_i32 = b.insert(memref.Load(k_arg, [])).results[0]
    n_i32 = b.insert(memref.Load(n_arg, [])).results[0]
    lb = b.insert(arith.IndexCast(k_i32, index)).results[0]  # 0-based k
    ub = b.insert(arith.IndexCast(n_i32, index)).results[0]
    one = b.insert(arith.Constant.index(1)).results[0]

    loop = b.insert(scf.For(lb, ub, one))
    inner = Builder.at_end(loop.body)
    ii = inner.insert(arith.Constant.int(1, 32)).results[0]
    inner.insert(hls.PipelineOp(ii))
    a_val = inner.insert(memref.Load(a_arg, [loop.induction_var])).results[0]
    b_val = inner.insert(memref.Load(b_arg, [loop.induction_var])).results[0]
    new_b = mac(inner, b_val, t_val, a_val, clang_idiom=True)
    inner.insert(memref.Store(new_b, b_arg, [loop.induction_var]))
    inner.insert(scf.Yield())
    b.insert(func_d.ReturnOp())
    return module


@dataclass
class HandwrittenSgesl:
    """Compiled baseline + a hand-written-style host driver."""

    board: U280Board
    bitstream: Bitstream

    @staticmethod
    def build(board: U280Board | None = None) -> "HandwrittenSgesl":
        board = board or U280Board()
        module = build_sgesl_module()
        return HandwrittenSgesl(board, VitisCompiler(board).compile(module))

    def run(
        self, a_matrix: np.ndarray, b_vec: np.ndarray, ipvt: np.ndarray
    ) -> ExecutionResult:
        """Full SGESL solve (job=0): forward elimination with the recorded
        pivots, then back substitution — both update loops offloaded, one
        launch per k, with the same per-launch data movement the OpenMP
        implicit maps cause (paper Listing 6 structure)."""
        n = len(b_vec)
        b_host = b_vec
        table = DeviceDataTable(self.board)
        queue = ClCommandQueue(self.board, self.bitstream)
        runner = KernelRunner(self.bitstream)
        device = [
            table.alloc(name, shape, dtype, 1).data
            for name, shape, dtype in (
                ("b", (n,), np.float32),
                ("a", (n,), np.float32),
                ("t", (), np.float32),
                ("k", (), np.int32),
                ("n", (), np.int32),
            )
        ]

        def launch(column, t, start, stop):
            """One offloaded update: b(start:stop) += t * a(start:stop)."""
            host = (
                b_host, column, np.float32(t), np.int32(start), np.int32(stop)
            )
            for source, dev in zip(host, device):
                queue.enqueue_transfer(source, dev, h2d=True)
            queue.enqueue_task(runner.run(KERNEL_NAME, *device))
            for dev, dest in zip(device[:2], host[:2]):
                queue.enqueue_transfer(dev, dest, h2d=False)

        # forward elimination: b(k+1:) += t * a(k+1:, k)
        for k in range(n - 1):
            pivot = int(ipvt[k])
            t = float(b_host[pivot])
            if pivot != k:
                b_host[pivot] = b_host[k]
                b_host[k] = t
            launch(a_matrix[:, k], t, k + 1, n)
        # back substitution: b(:k) += t * a(:k, k)
        for k in range(n - 1, -1, -1):
            b_host[k] = b_host[k] / a_matrix[k, k]
            launch(a_matrix[:, k], -float(b_host[k]), 0, k)
        return queue.result(f"hand-hls:sgesl:{n}")

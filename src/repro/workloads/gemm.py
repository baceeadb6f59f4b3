"""Tiled GEMM — C += A*B with a ``collapse(2)`` output nest and a
k-tiled accumulation loop.

The offloaded region is a rank-2 ``omp.loop_nest`` over the output
tile-free (i, j) space; each point loads c(i, j) into a scratch,
accumulates through tiles of ``TILE`` k-values, and writes the scratch
back to c(i, j).  The vectorizer runs the whole nest from its root as
one segmented plan: the (i, j) points are its rows, the tiles' k ranges
concatenated in order are each row's inner level, and every row folds
from its c(i, j) with one ordered accumulate before the in-place
write-back.
"""

from __future__ import annotations

import numpy as np

from repro.workloads.base import GalleryWorkload, WorkloadInstance, register

#: k-tile edge.  The tile bounds do not depend on (i, j), so every row
#: of the whole-space plan runs the same tiles; the edge only sets how
#: the k range splits, not which tier runs it.
TILE = 64


def gemm_source(tile: int = TILE) -> str:
    """The gallery GEMM kernel with a k-tile edge of ``tile``."""
    return f"""
subroutine gemm_tiled(a, b, c, n)
  implicit none
  integer, intent(in) :: n
  real, intent(in) :: a(n, n)
  real, intent(in) :: b(n, n)
  real, intent(inout) :: c(n, n)
  integer :: i, j, k, kk
  real :: t
!$omp target parallel do collapse(2)
  do i = 1, n
    do j = 1, n
      t = c(i, j)
      do kk = 1, n, {tile}
        do k = kk, min(kk + {tile - 1}, n)
          t = t + a(i, k) * b(k, j)
        end do
      end do
      c(i, j) = t
    end do
  end do
!$omp end target parallel do
end subroutine gemm_tiled
"""


GEMM_SOURCE = gemm_source()


def gemm_reference(
    a: np.ndarray, b: np.ndarray, c: np.ndarray
) -> np.ndarray:
    """C + A@B in float32 with the kernel's exact accumulation order:
    every (i, j) folds k = 0..n-1 sequentially starting from c(i, j)."""
    acc = c.astype(np.float32).copy()
    n = a.shape[0]
    for k in range(n):
        acc += a[:, k : k + 1] * b[k : k + 1, :]
    return acc


GEMM_SIZES = (64, 128, 192, 256)


def _make_instance(n: int, seed: int) -> WorkloadInstance:
    rng = np.random.default_rng(41 + seed)
    a = rng.standard_normal((n, n)).astype(np.float32)
    b = rng.standard_normal((n, n)).astype(np.float32)
    c = rng.standard_normal((n, n)).astype(np.float32)
    expected = gemm_reference(a, b, c)
    args = (a, b, c, np.array(n, dtype=np.int32))
    return WorkloadInstance(args=args, expected={2: expected})


GEMM = register(
    GalleryWorkload(
        name="gemm",
        description=f"k-tiled dense GEMM (tile {TILE}) under "
        "target parallel do collapse(2)",
        source=GEMM_SOURCE,
        entry="gemm_tiled",
        sizes=GEMM_SIZES,
        smoke_size=64,
        make_instance=_make_instance,
        loop_shape="2-D collapse + tiled k loop",
    )
)

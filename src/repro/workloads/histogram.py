"""Histogram — colliding bincount scatter plus a permutation scatter.

The gallery's indirect-*store* workload (ROADMAP "gather stores with
provably injective index arrays" / "histogram workload once scatter
support exists").  Two kernels:

* ``h(bins(i)) = h(bins(i)) + w(i)`` — a ``reduction``-free scatter
  *accumulate* whose index array collides heavily (many samples per
  bin).  The vectorizer folds it with ``np.ufunc.at``, which combines
  repeated indices strictly in iteration order, so float32 results stay
  bit-exact with the scalar interpreter without any injectivity proof.
* ``ph(perm(i)) = 2.0 * w(i)`` — a plain scatter through a permutation:
  collision-freedom is *not* static, so the vectorizer's runtime
  injectivity proof must pass before the deferred stores apply.  A
  shuffled permutation is not monotone, so it takes the ``unique``
  tier: the subscripts are sorted and compared pairwise (no hashing),
  and a negative subscript, which would wrap onto another cell,
  declines.
"""

from __future__ import annotations

import numpy as np

from repro.workloads.base import GalleryWorkload, WorkloadInstance, register

HISTOGRAM_SOURCE = """
subroutine histogram(bins, w, h, perm, ph, n, nb)
  implicit none
  integer, intent(in) :: n, nb
  integer, intent(in) :: bins(n)
  integer, intent(in) :: perm(n)
  real, intent(in) :: w(n)
  real, intent(inout) :: h(nb)
  real, intent(inout) :: ph(n)
  integer :: i
!$omp target parallel do
  do i = 1, n
    h(bins(i)) = h(bins(i)) + w(i)
  end do
!$omp end target parallel do
!$omp target parallel do
  do i = 1, n
    ph(perm(i)) = 2.0 * w(i)
  end do
!$omp end target parallel do
end subroutine histogram
"""


def num_bins(n: int) -> int:
    """Bin count for a sample count ``n`` — far fewer bins than samples
    so the accumulate kernel's scatter really collides."""
    return max(16, min(1024, n // 16))


def histogram_reference(
    bins: np.ndarray, w: np.ndarray, nb: int
) -> np.ndarray:
    """Bincount in float32 with the kernel's exact per-cell accumulation
    order: ``np.add.at`` applies colliding updates in iteration order."""
    h = np.zeros(nb, dtype=np.float32)
    np.add.at(h, bins, w)
    return h


def scatter_reference(perm: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The permutation scatter: each lane's float32 product lands in its
    permuted slot (per-lane semantics identical to the scalar walk)."""
    ph = np.zeros(len(w), dtype=np.float32)
    ph[perm] = (np.float32(2.0) * w).astype(np.float32)
    return ph


HISTOGRAM_SIZES = (4096, 16384, 65536, 262144)


def _make_instance(n: int, seed: int) -> WorkloadInstance:
    rng = np.random.default_rng(61 + seed)
    nb = num_bins(n)
    bins = rng.integers(0, nb, n).astype(np.int32)  # 0-based, collides
    perm = rng.permutation(n).astype(np.int32)
    w = rng.standard_normal(n).astype(np.float32)
    h = np.zeros(nb, dtype=np.float32)
    ph = np.zeros(n, dtype=np.float32)
    args = (
        (bins + 1).astype(np.int32),  # Fortran 1-based bin indices
        w,
        h,
        (perm + 1).astype(np.int32),
        ph,
        np.array(n, dtype=np.int32),
        np.array(nb, dtype=np.int32),
    )
    return WorkloadInstance(
        args=args,
        expected={
            2: histogram_reference(bins, w, nb),
            4: scatter_reference(perm, w),
        },
    )


HISTOGRAM = register(
    GalleryWorkload(
        name="histogram",
        description="bincount h(bins(i)) += w(i) colliding scatter via "
        "ufunc.at plus an injectivity-proved permutation scatter",
        source=HISTOGRAM_SOURCE,
        entry="histogram",
        sizes=HISTOGRAM_SIZES,
        smoke_size=512,
        make_instance=_make_instance,
        loop_shape="1-D scatter (colliding + permutation)",
    )
)

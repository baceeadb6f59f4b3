"""Benchmark workload gallery: Fortran sources + bit-exact NumPy references.

The paper evaluates SAXPY (Listing 5) and SGESL (Listing 6); this
package grows that set into a registry of workloads covering the loop
shapes the toolchain handles — 1-D SIMD offloads, dynamic-bound loops,
``collapse(2)``/``collapse(3)`` nests over 2-D/3-D arrays, CSR gather
accesses, round-robin reductions, indirect scatter stores (colliding
histogram accumulate + injectivity-proved permutation scatter) and
rank-3 nests with in-place k reductions.  Each workload module registers
itself at import time; consumers enumerate the gallery through
:func:`all_workloads` / :func:`get_workload`.

Importing this package keeps the original ``repro.workloads`` flat API
(``SAXPY_SOURCE``, ``SaxpyCase``, ``sgesl_reference``, ...) intact.
"""

from repro.workloads.base import (
    GalleryWorkload,
    WorkloadInstance,
    all_workloads,
    get_workload,
    register,
    workload_names,
)
from repro.workloads.batched_gemm import (
    BATCH,
    BATCHED_GEMM,
    BATCHED_GEMM_SIZES,
    BATCHED_GEMM_SOURCE,
    batched_gemm_reference,
)
from repro.workloads.dot import DOT, DOT_SIZES, DOT_SOURCE, NCOPIES, dot_reference
from repro.workloads.gemm import (
    GEMM,
    GEMM_SIZES,
    GEMM_SOURCE,
    TILE,
    gemm_reference,
)
from repro.workloads.histogram import (
    HISTOGRAM,
    HISTOGRAM_SIZES,
    HISTOGRAM_SOURCE,
    histogram_reference,
    num_bins,
    scatter_reference,
)
from repro.workloads.heat3d import (
    HEAT3D,
    HEAT3D_SIZES,
    HEAT3D_SOURCE,
    heat3d_reference,
)
from repro.workloads.jacobi import (
    JACOBI2D,
    JACOBI2D_SIZES,
    JACOBI2D_SOURCE,
    jacobi2d_reference,
)
from repro.workloads.saxpy import (
    SAXPY,
    SAXPY_SIZES,
    SAXPY_SOURCE,
    SaxpyCase,
    saxpy_reference,
)
from repro.workloads.sgesl import (
    SGESL,
    SGESL_SIZES,
    SGESL_SOURCE,
    SgeslCase,
    sgefa_reference,
    sgesl_reference,
)
from repro.workloads.spmv import (
    SPMV,
    SPMV_SIZES,
    SPMV_SOURCE,
    make_csr,
    spmv_reference,
)

__all__ = [
    "GalleryWorkload",
    "WorkloadInstance",
    "all_workloads",
    "get_workload",
    "register",
    "workload_names",
    # saxpy
    "SAXPY", "SAXPY_SIZES", "SAXPY_SOURCE", "SaxpyCase", "saxpy_reference",
    # sgesl
    "SGESL", "SGESL_SIZES", "SGESL_SOURCE", "SgeslCase",
    "sgefa_reference", "sgesl_reference",
    # jacobi
    "JACOBI2D", "JACOBI2D_SIZES", "JACOBI2D_SOURCE", "jacobi2d_reference",
    # heat3d
    "HEAT3D", "HEAT3D_SIZES", "HEAT3D_SOURCE", "heat3d_reference",
    # batched gemm
    "BATCH", "BATCHED_GEMM", "BATCHED_GEMM_SIZES", "BATCHED_GEMM_SOURCE",
    "batched_gemm_reference",
    # spmv
    "SPMV", "SPMV_SIZES", "SPMV_SOURCE", "make_csr", "spmv_reference",
    # dot
    "DOT", "DOT_SIZES", "DOT_SOURCE", "NCOPIES", "dot_reference",
    # gemm
    "GEMM", "GEMM_SIZES", "GEMM_SOURCE", "TILE", "gemm_reference",
    # histogram
    "HISTOGRAM", "HISTOGRAM_SIZES", "HISTOGRAM_SOURCE",
    "histogram_reference", "num_bins", "scatter_reference",
]

"""Compile service subsystem: content-addressed artifact store + pool.

Public surface:

* :class:`~repro.service.store.ArtifactStore` /
  :class:`~repro.service.store.ArtifactKey` — two-tier (memory LRU over
  disk) content-addressed storage of pickled compiled programs with
  integrity-checked loads;
* :class:`~repro.service.service.CompileService` /
  :class:`~repro.service.service.CompileRequest` — the request front
  door: cache lookup, request coalescing, bounded admission into a
  process pool of workers that build programs;
* :class:`~repro.service.service.ServiceMetrics` /
  :class:`~repro.service.service.ServiceStats` — per-request and
  aggregate accounting, rendered by :mod:`repro.reporting`.
"""

from repro.service.service import (
    CompileRequest,
    CompileService,
    ServiceMetrics,
    ServiceResponse,
    ServiceStats,
    build_stage_payload,
    reset_worker_sessions,
)
from repro.service.store import (
    STORE_VERSION,
    ArtifactKey,
    ArtifactStore,
    StoredArtifact,
    StoreStats,
    canonical_source,
)

__all__ = [
    "ArtifactKey",
    "ArtifactStore",
    "CompileRequest",
    "CompileService",
    "ServiceMetrics",
    "ServiceResponse",
    "ServiceStats",
    "StoreStats",
    "StoredArtifact",
    "STORE_VERSION",
    "build_stage_payload",
    "canonical_source",
    "reset_worker_sessions",
]

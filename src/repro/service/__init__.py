"""Compile service subsystem: content-addressed artifact store + pool.

Public surface:

* :class:`~repro.service.service.CompileRequest` — one program to
  build; its ``digest`` is the program's content address;
* :class:`~repro.service.store.ArtifactStore` — two-tier (memory LRU
  over disk) storage of pickled compiled programs keyed by that digest,
  with integrity-checked loads;
* :class:`~repro.service.service.CompileService` — the request front
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
    ArtifactStore,
    StoredArtifact,
    StoreStats,
    canonical_source,
)

__all__ = [
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

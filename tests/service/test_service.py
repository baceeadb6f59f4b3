"""Compile service: hits, misses, coalescing, admission, rebuild."""

from __future__ import annotations

import numpy as np
import pytest

from repro.reliability import (
    AdmissionRejected,
    DataIntegrityError,
    FrontendError,
    ServiceError,
)
from repro.service import (
    ArtifactStore,
    CompileRequest,
    CompileService,
)
from repro.reporting import service_request_table, service_stats_table
from tests.conftest import SAXPY_MINI, run_offload_saxpy


@pytest.fixture
def inline_service(tmp_path):
    """A fork-free service (builds run in the submitting thread)."""
    with CompileService(
        store=ArtifactStore(tmp_path), max_workers=0
    ) as service:
        yield service


# -- cache outcomes ----------------------------------------------------------


def test_miss_then_memory_hit(inline_service):
    request = CompileRequest(SAXPY_MINI)
    first = inline_service.compile(request)
    assert first.metrics.outcome == "built"
    assert first.metrics.build_s > 0.0
    second = inline_service.compile(request)
    assert second.metrics.outcome == "memory_hit"
    assert second.metrics.build_s == 0.0
    stats = inline_service.stats
    assert stats.requests == 2
    assert stats.builds == 1
    assert stats.memory_hits == 1
    assert stats.misses == 1


def test_disk_hit_after_memory_clear(inline_service):
    request = CompileRequest(SAXPY_MINI)
    inline_service.compile(request)
    inline_service.store.clear_memory()
    response = inline_service.compile(request)
    assert response.metrics.outcome == "disk_hit"
    assert inline_service.stats.disk_hits == 1


def test_cached_artifact_runs_bit_identically(inline_service):
    request = CompileRequest(SAXPY_MINI)
    built = inline_service.compile(request)
    cached = inline_service.compile(request)
    assert cached.artifact is not built.artifact
    y1, expected, r1 = run_offload_saxpy(built.artifact)
    y2, _, r2 = run_offload_saxpy(cached.artifact)
    np.testing.assert_array_equal(y1, expected)
    assert y1.tobytes() == y2.tobytes()
    assert r1.interpreter_steps == r2.interpreter_steps
    assert r1.device_time_ms == r2.device_time_ms
    assert r1.kernel_cycles == r2.kernel_cycles


def test_build_failure_propagates_wrapped_error(inline_service):
    with pytest.raises(FrontendError):
        inline_service.compile(CompileRequest("this is not fortran ("))
    assert inline_service.stats.build_failures == 1
    # the failure is not cached: the store holds nothing for the key
    assert CompileRequest("this is not fortran (").digest not in (
        inline_service.store
    )


def test_closed_service_rejects_submissions(tmp_path):
    service = CompileService(store=ArtifactStore(tmp_path), max_workers=0)
    service.close()
    with pytest.raises(ServiceError, match="closed"):
        service.submit(CompileRequest(SAXPY_MINI))


# -- integrity rebuild -------------------------------------------------------


def test_corrupt_disk_entry_is_rebuilt_not_served(inline_service):
    request = CompileRequest(SAXPY_MINI)
    inline_service.compile(request)
    digest = request.digest
    payload_path, _ = inline_service.store._paths(digest)
    data = bytearray(payload_path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    payload_path.write_bytes(bytes(data))
    inline_service.store.clear_memory()
    with pytest.raises(DataIntegrityError):
        inline_service.store.get(digest)
    response = inline_service.compile(request)
    assert response.metrics.outcome == "built"
    assert inline_service.stats.integrity_rebuilds == 1
    y, expected, _ = run_offload_saxpy(response.artifact)
    np.testing.assert_array_equal(y, expected)


# -- coalescing / admission (real pool) --------------------------------------


@pytest.mark.slow
def test_concurrent_same_key_requests_coalesce_to_one_build(tmp_path):
    with CompileService(
        store=ArtifactStore(tmp_path), max_workers=1
    ) as service:
        service.warm_pool()
        futures = [
            service.submit(CompileRequest(SAXPY_MINI)) for _ in range(8)
        ]
        responses = [f.result() for f in futures]
    outcomes = sorted(r.metrics.outcome for r in responses)
    assert outcomes == ["built"] + ["coalesced"] * 7
    assert service.stats.builds == 1
    assert service.stats.coalesced == 7
    digests = {r.metrics.digest for r in responses}
    assert len(digests) == 1
    # every waiter got an independent artifact object
    assert len({id(r.artifact) for r in responses}) == 8


@pytest.mark.slow
def test_admission_queue_rejects_when_full(tmp_path):
    with CompileService(
        store=ArtifactStore(tmp_path), max_workers=1, queue_depth=1
    ) as service:
        service.warm_pool()
        first = service.submit(CompileRequest(SAXPY_MINI))
        other = SAXPY_MINI.replace("saxpy", "saxpy2")
        with pytest.raises(AdmissionRejected) as info:
            service.submit(CompileRequest(other))
        assert info.value.transient
        assert service.stats.rejected == 1
        # the first build is unaffected by the rejection
        assert first.result().metrics.outcome == "built"
        # once the queue drains, the same request is admitted
        retried = service.compile(CompileRequest(other))
        assert retried.metrics.outcome == "built"


# -- reporting ---------------------------------------------------------------


def test_service_tables_render(inline_service):
    responses = [
        inline_service.compile(CompileRequest(SAXPY_MINI))
        for _ in range(2)
    ]
    stats_table = service_stats_table(inline_service.stats)
    assert "memory_hits" in stats_table and "builds" in stats_table
    request_table = service_request_table(responses)
    assert "built" in request_table and "memory_hit" in request_table

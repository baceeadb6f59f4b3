"""The multi-tenant compile service: cache front door + worker pool.

:class:`CompileService` fronts the content-addressed
:class:`~repro.service.store.ArtifactStore` with a
``concurrent.futures`` **process pool** that builds the cache-miss
programs::

    with CompileService(store=ArtifactStore(root)) as service:
        response = service.compile(CompileRequest(source))
        response.artifact.run(...)          # a fresh CompiledProgram
        print(response.metrics.outcome)     # "built" | "memory_hit" | ...

Request lifecycle:

1. the request's :attr:`CompileRequest.digest` is its address —
   identical (source, target, overrides) requests get identical
   addresses;
2. if a build for that digest is already **in flight**, the request
   *coalesces*: it attaches as a waiter and the one build's result fans
   out to every waiter (N concurrent identical requests = 1 build);
3. otherwise the store is consulted (memory tier, then disk with
   integrity checking — a corrupt entry is evicted and rebuilt, never
   served);
4. a miss is admitted to the pool only while the number of in-flight
   builds is below ``queue_depth``; past that the request is rejected
   with a typed, transient
   :class:`~repro.reliability.errors.AdmissionRejected`;
5. the worker builds the :class:`~repro.session.CompiledProgram` in its
   own process and returns the pickled payload + modelled metrics; the
   parent persists it to the store and resolves every waiter with an
   independently deserialized artifact.

Every response carries per-request :class:`ServiceMetrics` (queue wait,
build time, outcome) and the service aggregates :class:`ServiceStats`
counters; :mod:`repro.reporting` renders both.
"""

from __future__ import annotations

import hashlib
import pickle
import threading
from collections import OrderedDict
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from time import perf_counter

from repro.reliability.errors import (
    AdmissionRejected,
    DataIntegrityError,
    ServiceError,
)
from repro.service.store import (
    STORE_VERSION,
    ArtifactStore,
    StoredArtifact,
    canonical_source,
)
from repro.session import KernelOverrides, Session, TargetConfig


@dataclass(frozen=True)
class CompileRequest:
    """One compile request: the program to build, addressed by content."""

    source: str
    target: TargetConfig = field(default_factory=TargetConfig)
    overrides: KernelOverrides = field(default_factory=KernelOverrides)

    @cached_property
    def digest(self) -> str:
        """The program's stable content address (SHA-256 hex), its key
        in the :class:`~repro.service.store.ArtifactStore`."""
        source_digest = hashlib.sha256(
            canonical_source(self.source).encode()
        ).hexdigest()
        text = "|".join(
            (
                f"artifact/v{STORE_VERSION}",
                source_digest,
                self.target.digest(),
                self.overrides.digest(),
            )
        )
        return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class ServiceMetrics:
    """Per-request accounting, attached to every response."""

    digest: str
    outcome: str  # "memory_hit" | "disk_hit" | "built" | "coalesced"
    queue_wait_s: float = 0.0
    build_s: float = 0.0
    total_s: float = 0.0


@dataclass
class ServiceStats:
    """Service-level counters across all requests."""

    requests: int = 0
    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    coalesced: int = 0
    builds: int = 0
    build_failures: int = 0
    rejected: int = 0
    integrity_rebuilds: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "requests": self.requests,
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "coalesced": self.coalesced,
            "builds": self.builds,
            "build_failures": self.build_failures,
            "rejected": self.rejected,
            "integrity_rebuilds": self.integrity_rebuilds,
        }


@dataclass
class ServiceResponse:
    """A resolved request: the (freshly deserialized) artifact + metrics."""

    artifact: object
    metrics: ServiceMetrics
    #: the store metadata record (modelled metrics, payload size)
    metadata: dict = field(default_factory=dict)


#: Per-process staged-session cache: a pool worker keeps its frontend +
#: host/device artifacts warm across builds of the same source, so a DSE
#: sweep's points (same source, different overrides) cost one frontend
#: compile per worker instead of one per point.
_WORKER_SESSIONS: "OrderedDict[tuple[str, str], Session]" = OrderedDict()
_WORKER_SESSION_LIMIT = 4


def _worker_session(source: str, target: TargetConfig) -> Session:
    key = (source, target.digest())
    session = _WORKER_SESSIONS.get(key)
    if session is None:
        while len(_WORKER_SESSIONS) >= _WORKER_SESSION_LIMIT:
            _WORKER_SESSIONS.popitem(last=False)
        session = Session(source, target=target)
        _WORKER_SESSIONS[key] = session
    else:
        _WORKER_SESSIONS.move_to_end(key)
    return session


def reset_worker_sessions() -> None:
    """Drop this process's staged-session cache (benchmarks call this to
    time a genuinely cold build; workers never need to)."""
    _WORKER_SESSIONS.clear()


def build_stage_payload(
    source: str, target: TargetConfig, overrides: KernelOverrides
) -> tuple[bytes, dict]:
    """Build one program and return (pickled payload, metrics).

    Runs inside a pool worker (module-level so it pickles by reference);
    also the inline build path when the service runs with
    ``max_workers=0``.  A failure raises into the parent — the
    reliability taxonomy's wrapped errors survive that pickling hop.
    """
    start = perf_counter()
    session = _worker_session(source, target)
    program = session.program(overrides)
    payload = pickle.dumps(program, protocol=pickle.HIGHEST_PROTOCOL)
    build_s = round(perf_counter() - start, 6)
    bitstream = program.bitstream
    utilization = bitstream.utilization()
    metrics = {
        "build_s": build_s,
        "lut_pct": utilization.lut,
        "dsp_pct": utilization.dsp,
        "achieved_iis": [
            sched.achieved_ii
            for kernel in bitstream.kernels.values()
            for sched in kernel.loops.values()
        ],
    }
    # the payload holds the pickled copy; drop the live build so the
    # long-lived worker session stays flat across a sweep
    session.release_build(overrides)
    return payload, metrics


class CompileService:
    """Content-addressed compile service over a process pool of workers.

    ``max_workers=0`` builds inline in the submitting thread (no pool) —
    deterministic and fork-free, for tests and single-user embedding;
    any positive count spins up a ``ProcessPoolExecutor``.  Thread-safe:
    ``submit``/``compile`` may be called from many request threads.
    """

    def __init__(
        self,
        *,
        store: ArtifactStore | None = None,
        max_workers: int = 2,
        queue_depth: int = 8,
    ):
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        self.store = store if store is not None else ArtifactStore()
        self.queue_depth = queue_depth
        self._pool = (
            ProcessPoolExecutor(max_workers=max_workers)
            if max_workers > 0
            else None
        )
        self._lock = threading.Lock()
        #: digest -> (future, submit time, outcome label) per waiter of
        #: its one in-flight build
        self._inflight: dict[str, list[tuple[Future, float, str]]] = {}
        self.stats = ServiceStats()
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)

    def __enter__(self) -> "CompileService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def warm_pool(self) -> None:
        """Spin the worker processes up eagerly (benchmarks call this so
        pool start-up cost is not attributed to the first request)."""
        if self._pool is not None:
            list(self._pool.map(_noop, range(self._pool._max_workers)))

    # -- the front door ----------------------------------------------------

    def compile(self, request: CompileRequest) -> ServiceResponse:
        """Submit and block for the response."""
        return self.submit(request).result()

    def submit(self, request: CompileRequest) -> "Future[ServiceResponse]":
        """Resolve a request through cache / coalescing / the pool.

        Returns a future; raises :class:`AdmissionRejected` *immediately*
        (never via the future) when the bounded build queue is full.
        """
        t0 = perf_counter()
        digest = request.digest
        future: Future = Future()

        with self._lock:
            if self._closed:
                raise ServiceError("compile service is closed")
            self.stats.requests += 1
            waiters = self._inflight.get(digest)
            if waiters is not None:
                # Coalesce: ride the in-flight build, no new work.
                self.stats.coalesced += 1
                waiters.append((future, t0, "coalesced"))
                return future

        stored = self._lookup(digest)
        if stored is not None:
            outcome = f"{stored.tier}_hit"
            with self._lock:
                if stored.tier == "memory":
                    self.stats.memory_hits += 1
                else:
                    self.stats.disk_hits += 1
            self._resolve(future, stored, outcome, t0)
            return future

        with self._lock:
            # Re-check under the lock: another thread may have started
            # (or even finished) the same build while we probed the store.
            waiters = self._inflight.get(digest)
            if waiters is not None:
                self.stats.coalesced += 1
                waiters.append((future, t0, "coalesced"))
                return future
            if len(self._inflight) >= self.queue_depth:
                self.stats.rejected += 1
                raise AdmissionRejected(
                    f"admission queue full ({self.queue_depth} builds in "
                    "flight); resubmit after a backoff",
                    context=f"digest={digest[:12]}",
                )
            self.stats.misses += 1
            self._inflight[digest] = [(future, t0, "built")]

        self._start_build(request, digest)
        return future

    # -- internals ---------------------------------------------------------

    def _lookup(self, digest: str) -> StoredArtifact | None:
        """Store probe; a corrupt disk entry is evicted for rebuild."""
        try:
            return self.store.get(digest)
        except DataIntegrityError:
            with self._lock:
                self.stats.integrity_rebuilds += 1
            self.store.delete(digest)
            return None

    def _start_build(self, request: CompileRequest, digest: str) -> None:
        args = (request.source, request.target, request.overrides)
        if self._pool is None:
            done: Future = Future()
            try:
                done.set_result(build_stage_payload(*args))
            except BaseException as error:  # noqa: BLE001 — fan out as-is
                done.set_exception(error)
            self._on_built(digest, done)
        else:
            pool_future = self._pool.submit(build_stage_payload, *args)
            pool_future.add_done_callback(
                lambda f: self._on_built(digest, f)
            )

    def _on_built(self, digest: str, pool_future: Future) -> None:
        with self._lock:
            waiters = self._inflight.pop(digest, None)
        if waiters is None:  # pragma: no cover - defensive
            return
        error = pool_future.exception()
        if error is not None:
            with self._lock:
                self.stats.build_failures += 1
            for future, _, _ in waiters:
                future.set_exception(error)
            return
        payload, build_metrics = pool_future.result()
        stored = self.store.put(digest, payload, build_metrics)
        with self._lock:
            self.stats.builds += 1
        for future, t0, outcome in waiters:
            self._resolve(future, stored, outcome, t0)

    def _resolve(
        self,
        future: Future,
        stored: StoredArtifact,
        outcome: str,
        t0: float,
    ) -> None:
        try:
            artifact = stored.load()
            total = perf_counter() - t0
            build_s = float(
                stored.metadata.get("metrics", {}).get("build_s", 0.0)
            )
            charged_build = build_s if outcome == "built" else 0.0
            metrics = ServiceMetrics(
                digest=stored.digest,
                outcome=outcome,
                build_s=charged_build,
                queue_wait_s=max(0.0, total - charged_build),
                total_s=total,
            )
            future.set_result(
                ServiceResponse(
                    artifact=artifact,
                    metrics=metrics,
                    metadata=stored.metadata,
                )
            )
        except BaseException as error:  # noqa: BLE001 — surface, don't hang
            if not future.done():
                future.set_exception(error)


def _noop(_index: int) -> None:
    """Pool warm-up task (module-level so it pickles)."""
    return None

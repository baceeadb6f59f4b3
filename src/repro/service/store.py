"""Content-addressed artifact store for compiled programs.

Every :class:`~repro.session.CompiledProgram` the compile service builds
is stored as pickled bytes under its request's digest
(:attr:`~repro.service.service.CompileRequest.digest`): a stable SHA-256
of (canonical source text, :class:`~repro.session.TargetConfig`,
:class:`~repro.session.KernelOverrides`).  Identical requests from any
process therefore resolve to the same address, which is what lets the
compile service (:mod:`repro.service.service`) serve a cache hit instead
of recompiling.

Two tiers:

* an **in-memory LRU** of pickled payloads (bounded entry count), and
* an **on-disk tier** persisting ``<digest>.pkl`` payloads next to a
  ``<digest>.json`` metadata record (modelled metrics, payload size and
  SHA-256), surviving process restarts and shared between workers.

**Integrity is checked on load**: a disk payload whose SHA-256 does not
match its metadata record — or a metadata record addressing a different
digest — raises a typed
:class:`~repro.reliability.errors.DataIntegrityError`.  The store never
deserializes a corrupt payload, so a flipped bit on disk costs a rebuild,
never a silently wrong artifact.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

from repro.reliability.errors import DataIntegrityError

#: Bump together with the on-disk layout, the address text or a change to
#: the pickle form that makes an old payload load differently: a new
#: version addresses old entries away.
STORE_VERSION = 4


def canonical_source(text: str) -> str:
    """Canonical form of a Fortran source: normalized line endings,
    trailing whitespace stripped per line, no leading/trailing blank
    lines.  Requests differing only in incidental whitespace share one
    artifact address."""
    lines = [
        line.rstrip() for line in text.replace("\r\n", "\n").split("\n")
    ]
    while lines and not lines[0]:
        lines.pop(0)
    while lines and not lines[-1]:
        lines.pop()
    return "\n".join(lines) + "\n"


@dataclass
class StoredArtifact:
    """One store hit: the pickled payload plus its metadata record."""

    digest: str
    payload: bytes
    metadata: dict
    #: which tier served it ("memory" or "disk")
    tier: str = "memory"

    def load(self):
        """Deserialize a *fresh* artifact object.

        Every caller gets an independent object graph — two requests
        never share mutable IR state through the cache.
        """
        return pickle.loads(self.payload)


@dataclass
class StoreStats:
    """Tier-level counters (the service adds request-level metrics)."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    integrity_failures: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "integrity_failures": self.integrity_failures,
        }


class ArtifactStore:
    """Two-tier (memory LRU over disk) content-addressed artifact store.

    Thread-safe: the service front door calls it from request threads
    and pool callbacks concurrently.  ``root=None`` disables the disk
    tier (a pure in-process cache).
    """

    def __init__(
        self,
        root: str | Path | None = None,
        *,
        memory_entries: int = 64,
    ):
        if memory_entries < 0:
            raise ValueError("memory_entries must be >= 0")
        self.root = Path(root) if root is not None else None
        self.memory_entries = memory_entries
        self._lock = threading.Lock()
        #: digest -> (payload, metadata); ordered oldest-first
        self._memory: OrderedDict[str, tuple[bytes, dict]] = OrderedDict()
        self.stats = StoreStats()
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)

    # -- paths -------------------------------------------------------------

    def _paths(self, digest: str) -> tuple[Path, Path]:
        assert self.root is not None
        shard = self.root / digest[:2]
        return shard / f"{digest}.pkl", shard / f"{digest}.json"

    # -- lookup ------------------------------------------------------------

    def get(self, digest: str) -> StoredArtifact | None:
        """The stored artifact at ``digest``, or ``None`` on a miss.

        Raises :class:`DataIntegrityError` when the on-disk entry fails
        its checksum — the caller decides whether to rebuild (the
        compile service does, after evicting the corrupt entry).
        """
        with self._lock:
            entry = self._memory.get(digest)
            if entry is not None:
                self._memory.move_to_end(digest)
                self.stats.memory_hits += 1
                payload, metadata = entry
                return StoredArtifact(digest, payload, metadata, "memory")
        stored = self._read_disk(digest)
        if stored is None:
            with self._lock:
                self.stats.misses += 1
            return None
        with self._lock:
            self.stats.disk_hits += 1
            self._remember(digest, stored.payload, stored.metadata)
        return stored

    def _read_disk(self, digest: str) -> StoredArtifact | None:
        if self.root is None:
            return None
        payload_path, meta_path = self._paths(digest)
        if not payload_path.exists() or not meta_path.exists():
            return None
        try:
            metadata = json.loads(meta_path.read_text())
        except (OSError, ValueError) as error:
            with self._lock:
                self.stats.integrity_failures += 1
            raise DataIntegrityError(
                f"artifact store: unreadable metadata for {digest}",
                context=str(meta_path),
            ) from error
        payload = payload_path.read_bytes()
        actual = hashlib.sha256(payload).hexdigest()
        if (
            metadata.get("payload_sha256") != actual
            or metadata.get("key_digest") != digest
        ):
            with self._lock:
                self.stats.integrity_failures += 1
            raise DataIntegrityError(
                f"artifact store: payload checksum mismatch for {digest} "
                f"(recorded {metadata.get('payload_sha256')!r}, actual "
                f"{actual!r})",
                context=str(payload_path),
            )
        return StoredArtifact(digest, payload, metadata, "disk")

    # -- insertion ---------------------------------------------------------

    def put(
        self, digest: str, payload: bytes, metrics: dict | None = None
    ) -> StoredArtifact:
        """Store a pickled artifact at ``digest`` with its modelled
        ``metrics`` record."""
        metadata = {
            "store_version": STORE_VERSION,
            "key_digest": digest,
            "payload_sha256": hashlib.sha256(payload).hexdigest(),
            "payload_bytes": len(payload),
            "metrics": dict(metrics or {}),
        }
        self._write_disk(digest, payload, metadata)
        with self._lock:
            self.stats.puts += 1
            self._remember(digest, payload, metadata)
        return StoredArtifact(digest, payload, metadata, "memory")

    def _write_disk(self, digest: str, payload: bytes, metadata: dict):
        if self.root is None:
            return
        payload_path, meta_path = self._paths(digest)
        payload_path.parent.mkdir(parents=True, exist_ok=True)
        # Atomic publication: payload first, metadata (the commit record)
        # second — a crash between the two leaves an entry whose partner
        # is missing, which reads as a miss, never as corruption.
        for path, data in (
            (payload_path, payload),
            (meta_path, (json.dumps(metadata, indent=1) + "\n").encode()),
        ):
            tmp = path.with_suffix(path.suffix + f".tmp{os.getpid()}")
            tmp.write_bytes(data)
            os.replace(tmp, path)

    def _remember(self, digest: str, payload: bytes, metadata: dict):
        """Insert into the memory LRU (caller holds the lock)."""
        if self.memory_entries == 0:
            return
        self._memory[digest] = (payload, metadata)
        self._memory.move_to_end(digest)
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)
            self.stats.evictions += 1

    # -- management --------------------------------------------------------

    def delete(self, digest: str) -> bool:
        """Drop an entry from both tiers (used by the service to evict a
        corrupt disk record before rebuilding)."""
        with self._lock:
            removed = self._memory.pop(digest, None) is not None
        if self.root is not None:
            for path in self._paths(digest):
                try:
                    path.unlink()
                    removed = True
                except FileNotFoundError:
                    pass
        return removed

    def clear_memory(self) -> None:
        """Empty the in-memory tier (disk entries survive) — the warm
        vs cold bench uses this to time a pure disk hit."""
        with self._lock:
            self._memory.clear()

    def __contains__(self, digest: str) -> bool:
        with self._lock:
            if digest in self._memory:
                return True
        if self.root is None:
            return False
        payload_path, meta_path = self._paths(digest)
        return payload_path.exists() and meta_path.exists()

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

"""Artifact store: addressing, tiers, eviction, integrity checking."""

from __future__ import annotations

import pickle

import pytest

import repro.service.service as service_module
import repro.service.store as store_module
from repro.reliability import DataIntegrityError
from repro.service import (
    ArtifactStore,
    CompileRequest,
    canonical_source,
)
from repro.session import KernelOverrides, Session, TargetConfig
from repro.workloads import get_workload
from tests.conftest import SAXPY_MINI

#: the address of SAXPY_MINI's default program
DIGEST = CompileRequest(SAXPY_MINI).digest


# -- canonical source / keys -------------------------------------------------


def test_canonical_source_ignores_incidental_whitespace():
    a = canonical_source("subroutine s\nend subroutine s\n")
    b = canonical_source("\r\nsubroutine s   \r\nend subroutine s\n\n\n")
    assert a == b


def test_key_digest_stable_across_equal_instances():
    k1 = CompileRequest(source=SAXPY_MINI)
    k2 = CompileRequest(
        source=SAXPY_MINI,
        target=TargetConfig(memory_space_policy="single"),
        overrides=KernelOverrides(),
    )
    assert k1.digest == k2.digest


def test_key_digest_distinguishes_target_and_overrides():
    base = CompileRequest(source=SAXPY_MINI)
    digests = {
        base.digest,
        CompileRequest(
            source=SAXPY_MINI,
            target=TargetConfig(memory_space_policy="round_robin"),
        ).digest,
        CompileRequest(
            source=SAXPY_MINI, overrides=KernelOverrides(simdlen=8)
        ).digest,
    }
    assert len(digests) == 3


def test_request_digests_keep_their_store_v4_addresses():
    """The addresses the store's version-4 key text gave these programs
    before requests carried their own digest: a disk store written then
    still serves them."""
    source = get_workload("saxpy").source
    assert CompileRequest(source).digest == (
        "2e76e2132c35ad84e6f914a376dfeed7f753e69237b654f6adf75fb556a61a51"
    )
    wide = KernelOverrides(simdlen=2, compute_units=2)
    assert CompileRequest(source, overrides=wide).digest == (
        "947a72448cdf6b7028f76ec98928a298ea7b8e9b370dc993ea73b1b95ac168b4"
    )


def test_walk_index_keyed_schedules_are_addressed_away(tmp_path):
    """Store v2 pickled a device build's loop schedules keyed by their
    walk index in the device module.  Loaded now, those keys match no
    loop op and the runtime would price no loop, so the op-keyed form
    has new addresses: a disk store written at v2 never serves them."""
    program = Session(SAXPY_MINI).program(KernelOverrides())
    walk_index = {
        op: i for i, op in enumerate(program.bitstream.device_module.walk())
    }
    for kernel in program.bitstream.kernels.values():
        kernel.loops = {walk_index[op]: s for op, s in kernel.loops.items()}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(service_module, "STORE_VERSION", 2)
        v2_digest = CompileRequest(source=SAXPY_MINI).digest
    ArtifactStore(tmp_path).put(v2_digest, pickle.dumps(program))
    store = ArtifactStore(tmp_path)
    assert store.get(v2_digest) is not None
    assert store.get(DIGEST) is None


def test_key_text_change_moved_the_store_version():
    """Version 4 keys address programs only (no stage in the key text),
    so every entry an earlier version wrote is addressed away."""
    assert store_module.STORE_VERSION == 4


# -- tiers -------------------------------------------------------------------


def test_memory_tier_round_trip():
    store = ArtifactStore()
    assert store.get(DIGEST) is None
    store.put(DIGEST, pickle.dumps({"payload": 1}), {"build_s": 0.1})
    hit = store.get(DIGEST)
    assert hit is not None and hit.tier == "memory"
    assert hit.load() == {"payload": 1}
    assert hit.metadata["metrics"] == {"build_s": 0.1}
    assert store.stats.memory_hits == 1 and store.stats.misses == 1


def test_load_returns_fresh_object_per_caller():
    store = ArtifactStore()
    store.put(DIGEST, pickle.dumps({"mutable": []}))
    first = store.get(DIGEST).load()
    first["mutable"].append("dirty")
    assert store.get(DIGEST).load() == {"mutable": []}


def test_disk_tier_survives_memory_clear(tmp_path):
    store = ArtifactStore(tmp_path)
    store.put(DIGEST, pickle.dumps({"payload": 2}))
    store.clear_memory()
    hit = store.get(DIGEST)
    assert hit is not None and hit.tier == "disk"
    assert hit.load() == {"payload": 2}
    # the disk hit was promoted back into the memory tier
    assert store.get(DIGEST).tier == "memory"


def test_disk_tier_shared_between_store_instances(tmp_path):
    ArtifactStore(tmp_path).put(DIGEST, pickle.dumps({"payload": 3}))
    other = ArtifactStore(tmp_path)
    hit = other.get(DIGEST)
    assert hit is not None and hit.load() == {"payload": 3}


def test_memory_lru_evicts_oldest(tmp_path):
    store = ArtifactStore(tmp_path, memory_entries=2)
    keys = [
        CompileRequest(
            SAXPY_MINI, overrides=KernelOverrides(simdlen=s)
        ).digest
        for s in (1, 2, 4)
    ]
    for i, key in enumerate(keys):
        store.put(key, pickle.dumps({"i": i}))
    assert len(store) == 2
    assert store.stats.evictions == 1
    # the evicted entry still resolves from disk
    assert store.get(keys[0]).tier == "disk"


def test_delete_clears_both_tiers(tmp_path):
    store = ArtifactStore(tmp_path)
    store.put(DIGEST, pickle.dumps({"payload": 4}))
    assert DIGEST in store
    assert store.delete(DIGEST)
    assert DIGEST not in store
    assert store.get(DIGEST) is None


# -- integrity ---------------------------------------------------------------


def _corrupt_payload(store, digest):
    payload_path, _ = store._paths(digest)
    data = bytearray(payload_path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    payload_path.write_bytes(bytes(data))


def test_corrupted_payload_raises_data_integrity_error(tmp_path):
    store = ArtifactStore(tmp_path)
    store.put(DIGEST, pickle.dumps({"payload": 5}))
    _corrupt_payload(store, DIGEST)
    store.clear_memory()
    with pytest.raises(DataIntegrityError, match="checksum mismatch"):
        store.get(DIGEST)
    assert store.stats.integrity_failures == 1


def test_corrupted_metadata_raises_data_integrity_error(tmp_path):
    store = ArtifactStore(tmp_path)
    store.put(DIGEST, pickle.dumps({"payload": 6}))
    _, meta_path = store._paths(DIGEST)
    meta_path.write_text("{not json")
    store.clear_memory()
    with pytest.raises(DataIntegrityError, match="unreadable metadata"):
        store.get(DIGEST)


def test_metadata_for_wrong_key_is_rejected(tmp_path):
    """A metadata record addressing a different digest (e.g. a renamed
    file) must not be served."""
    store = ArtifactStore(tmp_path)
    key_a = DIGEST
    key_b = CompileRequest(
        source=SAXPY_MINI, overrides=KernelOverrides(simdlen=8)
    ).digest
    store.put(key_a, pickle.dumps({"payload": 7}))
    a_payload, a_meta = store._paths(key_a)
    b_payload, b_meta = store._paths(key_b)
    b_payload.parent.mkdir(parents=True, exist_ok=True)
    b_payload.write_bytes(a_payload.read_bytes())
    b_meta.write_bytes(a_meta.read_bytes())
    store.clear_memory()
    with pytest.raises(DataIntegrityError):
        store.get(key_b)


def test_missing_partner_file_reads_as_miss(tmp_path):
    """A crash between payload and metadata writes leaves a half entry:
    that is a miss (rebuild), never corruption."""
    store = ArtifactStore(tmp_path)
    store.put(DIGEST, pickle.dumps({"payload": 8}))
    _, meta_path = store._paths(DIGEST)
    meta_path.unlink()
    store.clear_memory()
    assert store.get(DIGEST) is None

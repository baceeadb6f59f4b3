"""Artifact store: addressing, tiers, eviction, integrity checking."""

from __future__ import annotations

import pytest

import repro.service.store as store_module
from repro.reliability import DataIntegrityError
from repro.service import (
    ArtifactKey,
    ArtifactStore,
    canonical_source,
)
from repro.session import KernelOverrides, Session, TargetConfig
from tests.conftest import SAXPY_MINI


# -- canonical source / keys -------------------------------------------------


def test_canonical_source_ignores_incidental_whitespace():
    a = canonical_source("subroutine s\nend subroutine s\n")
    b = canonical_source("\r\nsubroutine s   \r\nend subroutine s\n\n\n")
    assert a == b


def test_key_digest_stable_across_equal_instances():
    k1 = ArtifactKey(source=SAXPY_MINI)
    k2 = ArtifactKey(
        source=SAXPY_MINI,
        target=TargetConfig(memory_space_policy="single"),
        overrides=KernelOverrides(),
    )
    assert k1.digest == k2.digest


def test_key_digest_distinguishes_target_and_overrides():
    base = ArtifactKey(source=SAXPY_MINI)
    digests = {
        base.digest,
        ArtifactKey(
            source=SAXPY_MINI,
            target=TargetConfig(memory_space_policy="round_robin"),
        ).digest,
        ArtifactKey(
            source=SAXPY_MINI, overrides=KernelOverrides(simdlen=8)
        ).digest,
    }
    assert len(digests) == 3


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
    key = ArtifactKey(source=SAXPY_MINI)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(store_module, "STORE_VERSION", 2)
        v2_digest = key.digest
    ArtifactStore(tmp_path).put(v2_digest, program)
    store = ArtifactStore(tmp_path)
    assert store.get(v2_digest) is not None
    assert store.get(key) is None


def test_key_text_change_moved_the_store_version():
    """Version 4 keys address programs only (no stage in the key text),
    so every entry an earlier version wrote is addressed away."""
    assert store_module.STORE_VERSION == 4


# -- tiers -------------------------------------------------------------------


def test_memory_tier_round_trip():
    store = ArtifactStore()
    key = ArtifactKey(source=SAXPY_MINI)
    assert store.get(key) is None
    store.put(key, {"payload": 1}, {"build_s": 0.1})
    hit = store.get(key)
    assert hit is not None and hit.tier == "memory"
    assert hit.load() == {"payload": 1}
    assert hit.metadata["metrics"] == {"build_s": 0.1}
    assert store.stats.memory_hits == 1 and store.stats.misses == 1


def test_load_returns_fresh_object_per_caller():
    store = ArtifactStore()
    key = ArtifactKey(source=SAXPY_MINI)
    store.put(key, {"mutable": []})
    first = store.get(key).load()
    first["mutable"].append("dirty")
    assert store.get(key).load() == {"mutable": []}


def test_disk_tier_survives_memory_clear(tmp_path):
    store = ArtifactStore(tmp_path)
    key = ArtifactKey(source=SAXPY_MINI)
    store.put(key, {"payload": 2})
    store.clear_memory()
    hit = store.get(key)
    assert hit is not None and hit.tier == "disk"
    assert hit.load() == {"payload": 2}
    # the disk hit was promoted back into the memory tier
    assert store.get(key).tier == "memory"


def test_disk_tier_shared_between_store_instances(tmp_path):
    key = ArtifactKey(source=SAXPY_MINI)
    ArtifactStore(tmp_path).put(key, {"payload": 3})
    other = ArtifactStore(tmp_path)
    hit = other.get(key)
    assert hit is not None and hit.load() == {"payload": 3}


def test_memory_lru_evicts_oldest(tmp_path):
    store = ArtifactStore(tmp_path, memory_entries=2)
    keys = [
        ArtifactKey(source=SAXPY_MINI, overrides=KernelOverrides(simdlen=s))
        for s in (1, 2, 4)
    ]
    for i, key in enumerate(keys):
        store.put(key, {"i": i})
    assert len(store) == 2
    assert store.stats.evictions == 1
    # the evicted entry still resolves from disk
    assert store.get(keys[0]).tier == "disk"


def test_delete_clears_both_tiers(tmp_path):
    store = ArtifactStore(tmp_path)
    key = ArtifactKey(source=SAXPY_MINI)
    store.put(key, {"payload": 4})
    assert key in store
    assert store.delete(key)
    assert key not in store
    assert store.get(key) is None


# -- integrity ---------------------------------------------------------------


def _corrupt_payload(store, key):
    payload_path, _ = store._paths(key.digest)
    data = bytearray(payload_path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    payload_path.write_bytes(bytes(data))


def test_corrupted_payload_raises_data_integrity_error(tmp_path):
    store = ArtifactStore(tmp_path)
    key = ArtifactKey(source=SAXPY_MINI)
    store.put(key, {"payload": 5})
    _corrupt_payload(store, key)
    store.clear_memory()
    with pytest.raises(DataIntegrityError, match="checksum mismatch"):
        store.get(key)
    assert store.stats.integrity_failures == 1


def test_corrupted_metadata_raises_data_integrity_error(tmp_path):
    store = ArtifactStore(tmp_path)
    key = ArtifactKey(source=SAXPY_MINI)
    store.put(key, {"payload": 6})
    _, meta_path = store._paths(key.digest)
    meta_path.write_text("{not json")
    store.clear_memory()
    with pytest.raises(DataIntegrityError, match="unreadable metadata"):
        store.get(key)


def test_metadata_for_wrong_key_is_rejected(tmp_path):
    """A metadata record addressing a different digest (e.g. a renamed
    file) must not be served."""
    store = ArtifactStore(tmp_path)
    key_a = ArtifactKey(source=SAXPY_MINI)
    key_b = ArtifactKey(
        source=SAXPY_MINI, overrides=KernelOverrides(simdlen=8)
    )
    store.put(key_a, {"payload": 7})
    a_payload, a_meta = store._paths(key_a.digest)
    b_payload, b_meta = store._paths(key_b.digest)
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
    key = ArtifactKey(source=SAXPY_MINI)
    store.put(key, {"payload": 8})
    _, meta_path = store._paths(key.digest)
    meta_path.unlink()
    store.clear_memory()
    assert store.get(key) is None

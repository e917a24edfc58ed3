"""Unit tests for the checkpoint store's verification chain.

Every way a checkpoint directory can lie — edited shard file, grafted
manifest, wrong config, wrong schema version, torn manifest write — must
be detected and answered with re-execution, never with silently mixed
artifacts.  The stream pipeline commits its epochs through this store,
so the fingerprint and manifest bytes are pinned as well.
"""

import hashlib
import json

import pytest

from repro.perf.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    MANIFEST_NAME,
    CheckpointStore,
    Shard,
    shard_fingerprint,
)

SHARD0 = Shard(index=0, start=0, stop=3)
SHARD1 = Shard(index=1, start=3, stop=5)
RECORDS0 = [{"i": 0}, {"i": 1}, {"i": 2}]
RECORDS1 = [{"i": 3}, {"i": 4}]


def _store(tmp_path, run_key="key-a"):
    return CheckpointStore(tmp_path / "ckpt", run_key=run_key)


def _primed(tmp_path, **kwargs):
    store = _store(tmp_path, **kwargs)
    store.commit(SHARD0, RECORDS0)
    store.commit(SHARD1, RECORDS1)
    return store


class TestRoundTrip:
    def test_commit_then_load(self, tmp_path):
        store = _primed(tmp_path)
        assert store.committed == 2
        fresh = _store(tmp_path)
        assert fresh.load(SHARD0) == RECORDS0
        assert fresh.load(SHARD1) == RECORDS1
        assert fresh.resumed == 2
        assert fresh.invalid == 0

    def test_completed_indices(self, tmp_path):
        store = _primed(tmp_path)
        assert store.completed_indices() == [0, 1]
        assert _store(tmp_path).completed_indices() == [0, 1]

    def test_missing_shard_loads_none(self, tmp_path):
        store = _primed(tmp_path)
        assert store.load(Shard(index=7, start=9, stop=11)) is None
        assert store.invalid == 0  # absence is not corruption

    def test_commit_overwrites_previous_attempt(self, tmp_path):
        store = _primed(tmp_path)
        store.commit(SHARD0, [{"i": 99}, {"i": 98}, {"i": 97}])
        fresh = _store(tmp_path)
        assert fresh.load(SHARD0) == [{"i": 99}, {"i": 98}, {"i": 97}]


class TestVerificationChain:
    def test_fingerprint_binds_extent(self, tmp_path):
        # Same index, different slice of the work list — a different
        # shard plan must never reuse the old bytes.
        _primed(tmp_path)
        fresh = _store(tmp_path)
        moved = Shard(index=0, start=0, stop=4)
        assert fresh.load(moved) is None
        assert fresh.invalid == 1

    def test_tampered_bytes_fail_digest(self, tmp_path):
        store = _primed(tmp_path)
        path = store.root / "shard-00000.jsonl"
        path.write_bytes(path.read_bytes().replace(b'"i": 1', b'"i": 9'))
        fresh = _store(tmp_path)
        assert fresh.load(SHARD0) is None
        assert fresh.invalid == 1
        assert fresh.load(SHARD1) == RECORDS1  # other shards unaffected

    def test_deleted_shard_file_is_invalid(self, tmp_path):
        store = _primed(tmp_path)
        (store.root / "shard-00001.jsonl").unlink()
        fresh = _store(tmp_path)
        assert fresh.load(SHARD1) is None
        assert fresh.invalid == 1

    def test_wrong_record_count_is_invalid(self, tmp_path):
        # A manifest whose digest matches but whose count lies (e.g. a
        # hand-edited entry) is still rejected.
        store = _primed(tmp_path)
        manifest_path = store.root / MANIFEST_NAME
        data = json.loads(manifest_path.read_text())
        data["shards"]["0"]["n_records"] = 99
        manifest_path.write_text(json.dumps(data))
        fresh = _store(tmp_path)
        assert fresh.load(SHARD0) is None
        assert fresh.invalid == 1

    def test_invalid_entry_is_dropped_once(self, tmp_path):
        store = _primed(tmp_path)
        (store.root / "shard-00000.jsonl").unlink()
        fresh = _store(tmp_path)
        assert fresh.load(SHARD0) is None
        assert fresh.load(SHARD0) is None  # second probe: plain miss
        assert fresh.invalid == 1


class TestManifestIdentity:
    def test_run_key_mismatch_ignores_manifest(self, tmp_path):
        _primed(tmp_path, run_key="key-a")
        other = _store(tmp_path, run_key="key-b")
        assert other.completed_indices() == []
        assert other.load(SHARD0) is None

    def test_schema_version_mismatch_resets(self, tmp_path):
        store = _primed(tmp_path)
        manifest_path = store.root / MANIFEST_NAME
        data = json.loads(manifest_path.read_text())
        data["schema"] = "0"
        manifest_path.write_text(json.dumps(data))
        assert _store(tmp_path).completed_indices() == []

    def test_torn_manifest_is_an_empty_checkpoint(self, tmp_path):
        store = _primed(tmp_path)
        manifest_path = store.root / MANIFEST_NAME
        raw = manifest_path.read_text()
        manifest_path.write_text(raw[: len(raw) // 2])
        fresh = _store(tmp_path)
        assert fresh.completed_indices() == []
        assert fresh.load(SHARD0) is None

    def test_missing_directory_is_empty(self, tmp_path):
        store = _store(tmp_path)
        assert store.completed_indices() == []
        assert store.load(SHARD0) is None

    def test_manifest_format_matches_design_doc(self, tmp_path):
        store = _primed(tmp_path)
        data = json.loads((store.root / MANIFEST_NAME).read_text())
        assert data["schema"] == CHECKPOINT_SCHEMA_VERSION
        assert data["run_key"] == "key-a"
        entry = data["shards"]["0"]
        assert set(entry) == {"fingerprint", "digest", "n_records", "file"}
        assert entry["fingerprint"] == shard_fingerprint("key-a", SHARD0)
        assert entry["n_records"] == 3
        assert entry["file"] == "shard-00000.jsonl"

    def test_manifest_bytes_pinned(self, tmp_path):
        store = _primed(tmp_path)
        raw = (store.root / MANIFEST_NAME).read_bytes()
        assert b'"schema": "3"' in raw
        assert hashlib.sha256(raw).hexdigest() == (
            "9bb5a06b14e11989ead174a56de04e90104fd418a912ab31d696021f708ee25e"
        )


class TestFingerprint:
    def test_distinct_inputs_distinct_fingerprints(self):
        base = shard_fingerprint("key", SHARD0)
        assert base != shard_fingerprint("other", SHARD0)
        assert base != shard_fingerprint("key", Shard(0, 0, 4))
        assert base != shard_fingerprint("key", Shard(1, 0, 3))
        assert base == shard_fingerprint("key", Shard(0, 0, 3))

    def test_fingerprint_bytes_pinned(self):
        assert shard_fingerprint("key-a", SHARD0) == (
            "bf437691c7d97447680f9308d31b5d70bf30998029d4c03cf0a7ff95ccd73a58"
        )

"""Checkpointed resume: durable, verified progress in numbered shards.

The stream pipeline (:mod:`repro.streaming.pipeline`) commits each
epoch's snapshot through a :class:`CheckpointStore`, so a crashed
stream resumes from its last epoch.  Each committed :class:`Shard` is
written to its own JSONL file (atomically, via ``.tmp`` +
``os.replace``) and recorded in a ``manifest.json`` that is itself
rewritten atomically after every commit — so at any instant the
directory holds a consistent set of fully-written shards.  A restarted
run passes the same store back in and loads only the shards the
manifest vouches for.

The manifest vouches with two hashes per shard (format documented in
DESIGN.md §7):

* the **shard fingerprint** — SHA-256 over ``run_key : index : start :
  stop``, where ``run_key`` is the run's config fingerprint.  Any change
  to the config or the schema version changes the fingerprint, so stale
  checkpoints are dropped, never wrongly reused;
* the **output digest** — SHA-256 over the shard file's exact bytes,
  computed while writing.  A shard file that was truncated, edited or
  torn after commit fails verification and is dropped.

A kept shard is therefore byte-for-byte the shard the original run
committed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.io.jsonl import atomic_writer, json_default

PathLike = Union[str, Path]

#: Bump when the manifest layout, the shard file framing or the layout
#: of a stream epoch changes; old checkpoint directories then
#: re-execute cleanly instead of deserialising into garbage.  "2":
#: reorder-buffer rows are positional and carry their fault tags.
CHECKPOINT_SCHEMA_VERSION = "2"

MANIFEST_NAME = "manifest.json"


@dataclass(frozen=True)
class Shard:
    """One committed unit of progress (a stream epoch).

    Attributes:
        index: position in the commit order.
        start / stop: half-open range the shard covers; bound into its
            fingerprint.
    """

    index: int
    start: int
    stop: int


def shard_fingerprint(run_key: str, shard: Shard) -> str:
    """SHA-256 identity of one shard of one run.

    Binds the run (config fingerprint) to the shard's position *and*
    extent, so a checkpoint taken under one shard plan can never be
    grafted onto another.
    """
    blob = f"{run_key}:{shard.index}:{shard.start}:{shard.stop}"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class CheckpointStore:
    """Durable per-shard progress for one run.

    Args:
        root: checkpoint directory (created on first commit).
        run_key: identity of the run — use the config fingerprint so
            resume can never mix configs.

    Counters:
        committed: shards written by this store object.
        resumed: shards served from disk after verification.
        invalid: manifest entries rejected (missing file, digest or
            fingerprint mismatch, wrong record count) and re-executed.
    """

    def __init__(self, root: PathLike, run_key: str) -> None:
        self._root = Path(root)
        self._run_key = str(run_key)
        self.committed = 0
        self.resumed = 0
        self.invalid = 0
        self._shards: Dict[int, Dict[str, Any]] = {}
        self._load_manifest()

    @property
    def root(self) -> Path:
        return self._root

    @property
    def run_key(self) -> str:
        return self._run_key

    # -- manifest ---------------------------------------------------------

    def _manifest_path(self) -> Path:
        return self._root / MANIFEST_NAME

    def _load_manifest(self) -> None:
        path = self._manifest_path()
        try:
            with open(path, encoding="utf-8") as f:
                data = json.load(f)
        except (OSError, ValueError):
            # Missing or torn manifest: an empty checkpoint, not an
            # error — the run simply starts from scratch.
            return
        if not isinstance(data, dict):
            return
        if data.get("schema") != CHECKPOINT_SCHEMA_VERSION:
            return
        if data.get("run_key") != self._run_key:
            # A checkpoint for a different config/schema: ignore it
            # wholesale rather than mix artifacts.
            return
        shards = data.get("shards")
        if not isinstance(shards, dict):
            return
        for key, entry in shards.items():
            try:
                index = int(key)
            except (TypeError, ValueError):
                continue
            if isinstance(entry, dict):
                self._shards[index] = entry

    def _write_manifest(self) -> None:
        self._root.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": CHECKPOINT_SCHEMA_VERSION,
            "run_key": self._run_key,
            "shards": {
                str(index): entry
                for index, entry in sorted(self._shards.items())
            },
        }
        with atomic_writer(self._manifest_path()) as f:
            f.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")

    # -- commit / load ----------------------------------------------------

    def _shard_file(self, shard: Shard) -> Path:
        return self._root / f"shard-{shard.index:05d}.jsonl"

    def commit(self, shard: Shard, records: List[Any]) -> None:
        """Durably record one completed shard.

        The shard file lands atomically, its digest is computed over the
        exact bytes written, and the manifest is rewritten atomically —
        a crash between any two steps leaves a consistent checkpoint
        (at worst the shard is re-executed on resume).
        """
        self._root.mkdir(parents=True, exist_ok=True)
        path = self._shard_file(shard)
        digest = hashlib.sha256()
        with atomic_writer(path) as f:
            for record in records:
                line = json.dumps(record, default=json_default) + "\n"
                digest.update(line.encode("utf-8"))
                f.write(line)
        self._shards[shard.index] = {
            "fingerprint": shard_fingerprint(self._run_key, shard),
            "digest": digest.hexdigest(),
            "n_records": len(records),
            "file": path.name,
        }
        self._write_manifest()
        self.committed += 1

    def load(self, shard: Shard) -> Optional[List[Any]]:
        """The shard's committed records, or None if it must re-execute.

        Verifies the manifest entry end to end — shard fingerprint,
        file presence, byte digest, record count — and drops the entry
        (counting it in ``invalid``) on any mismatch.
        """
        entry = self._shards.get(shard.index)
        if entry is None:
            return None
        expected = shard_fingerprint(self._run_key, shard)
        if entry.get("fingerprint") != expected:
            self._drop(shard.index)
            return None
        path = self._root / str(entry.get("file", ""))
        try:
            raw = path.read_bytes()
        except OSError:
            self._drop(shard.index)
            return None
        if hashlib.sha256(raw).hexdigest() != entry.get("digest"):
            self._drop(shard.index)
            return None
        records: List[Any] = []
        try:
            for line in raw.decode("utf-8").splitlines():
                if line.strip():
                    records.append(json.loads(line))
        except ValueError:
            self._drop(shard.index)
            return None
        if len(records) != entry.get("n_records"):
            self._drop(shard.index)
            return None
        self.resumed += 1
        return records

    def _drop(self, index: int) -> None:
        self._shards.pop(index, None)
        self.invalid += 1

    def completed_indices(self) -> List[int]:
        """Shard indices the manifest currently vouches for."""
        return sorted(self._shards)

"""Content-addressed artifact cache for generated datasets.

Generation is deterministic in the config (that is the whole point of
the substream RNG contract), so an artifact is fully identified by a
hash of its configuration plus the serialisation schema version.  The
cache exploits that: ``load_or_build`` returns the cached JSONL artifact
when the fingerprint matches and transparently regenerates (and
persists) it otherwise.  Benchmarks and USaaS queries hit warm cache
instead of resimulating; changing any config field — or bumping
:data:`ARTIFACT_SCHEMA_VERSION` when the on-disk schema changes —
changes the fingerprint and therefore misses cleanly.

Corrupted entries are never fatal: a cache file that fails to load is
evicted and the artifact rebuilt from scratch, mirroring the
stale-cache salvage behaviour of the resilience layer (PR 1).
"""

from __future__ import annotations

import dataclasses
import datetime as dt
import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.errors import ConfigError, ReproError

PathLike = Union[str, Path]

#: Bump whenever the JSONL serialisation of a cached artifact changes —
#: old entries then miss (and are rebuilt) instead of deserialising
#: into garbage.
ARTIFACT_SCHEMA_VERSION = "1"

#: Config fields that select *how* an artifact is computed, not *what*
#: it is, and so are excluded from the fingerprint.  ``workers`` now has
#: one legal value; excluding it keeps every cache key unchanged.
EXECUTION_ONLY_FIELDS = frozenset({"workers"})


def _canonical(value: Any) -> Any:
    """Reduce a config value to a JSON-stable canonical form."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if f.name not in EXECUTION_ONLY_FIELDS
        }
    if isinstance(value, Mapping):
        return {str(_canonical(k)): _canonical(v) for k, v in sorted(
            value.items(), key=lambda kv: str(kv[0])
        )}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [_canonical(v) for v in value]
        return sorted(items, key=repr) if isinstance(value, (set, frozenset)) else items
    if isinstance(value, (dt.date, dt.datetime)):
        return value.isoformat()
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    # Objects without a stable field view (e.g. a QoeModel with numpy
    # internals) fall back to their repr — dataclasses cover everything
    # this repo actually caches.
    return repr(value)


def config_fingerprint(
    kind: str,
    config: Any,
    schema_version: str = ARTIFACT_SCHEMA_VERSION,
) -> str:
    """SHA-256 over the canonical config, the kind and the schema version."""
    payload = {
        "kind": kind,
        "schema_version": schema_version,
        "config": _canonical(config),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time view of the cache directory plus session counters.

    Attributes:
        entries: artifact files currently on disk.
        total_bytes: their combined size.
        hits / misses: ``load_or_build`` outcomes for this cache object.
        evictions: corrupted entries dropped and rebuilt.
        by_kind: entry count per artifact kind.
    """

    entries: int
    total_bytes: int
    hits: int
    misses: int
    evictions: int
    by_kind: Mapping[str, int]

    def summary(self) -> str:
        kinds = ", ".join(
            f"{kind}={count}" for kind, count in sorted(self.by_kind.items())
        ) or "none"
        return (
            f"{self.entries} entries / {self.total_bytes} bytes "
            f"({kinds}); session: {self.hits} hits, {self.misses} misses, "
            f"{self.evictions} evictions"
        )


class ArtifactCache:
    """Content-addressed store of generated artifacts under one root.

    Entries live at ``<root>/<kind>-<fingerprint16>.jsonl`` with a JSON
    sidecar recording the full fingerprint and the canonical config for
    inspection.  Writes go through the artifact's own atomic JSONL
    export, so a crash mid-build can never leave a truncated entry.
    """

    def __init__(
        self,
        root: PathLike,
        schema_version: str = ARTIFACT_SCHEMA_VERSION,
    ) -> None:
        self._root = Path(root)
        self._schema_version = schema_version
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Failed deletions during evictions (raced with another
        #: process) — surfaced instead of silently swallowed.
        self.evict_races = 0
        #: How long load_or_build waits for a concurrent writer holding
        #: the entry's build lock before giving up (LockTimeoutError).
        self.lock_timeout_s = 300.0

    @property
    def root(self) -> Path:
        return self._root

    # -- addressing ------------------------------------------------------

    def fingerprint(self, kind: str, config: Any) -> str:
        return config_fingerprint(kind, config, self._schema_version)

    def path_for(self, kind: str, config: Any) -> Path:
        """Where the artifact for this (kind, config) lives on disk."""
        if not kind or any(c in kind for c in "/\\."):
            raise ConfigError(f"invalid artifact kind {kind!r}")
        digest = self.fingerprint(kind, config)
        return self._root / f"{kind}-{digest[:16]}.jsonl"

    # -- the main entry point -------------------------------------------

    def load_or_build(
        self,
        kind: str,
        config: Any,
        build: Callable[[], Any],
        load: Callable[[Path], Any],
        dump: Callable[[Any, Path], Any],
    ) -> Any:
        """Return the cached artifact, or build + persist it on a miss.

        ``load`` / ``dump`` adapt the artifact's own (de)serialisation —
        e.g. ``CallDataset.from_jsonl`` / ``CallDataset.to_jsonl``.  A
        cache file that fails to load (truncated, corrupted, written by
        an incompatible schema) is evicted and rebuilt; the cache never
        turns a warm path into a hard failure.

        Builds hold an advisory file lock on the entry, so two processes
        missing on the same fingerprint build it once: the second waits,
        re-checks, and loads the first's artifact.  (Both share one
        ``<entry>.jsonl.tmp`` sibling otherwise — interleaved writes.)
        """
        path = self.path_for(kind, config)
        artifact = self._try_load(path, load)
        if artifact is not None:
            return artifact
        from repro.io.locks import file_lock

        self._root.mkdir(parents=True, exist_ok=True)
        with file_lock(path, timeout_s=self.lock_timeout_s):
            # Double-checked: a concurrent writer may have finished the
            # build while this process waited on the lock.
            artifact = self._try_load(path, load)
            if artifact is not None:
                return artifact
            self.misses += 1
            artifact = build()
            dump(artifact, path)
            self._write_sidecar(path, kind, config)
        return artifact

    def _try_load(self, path: Path, load: Callable[[Path], Any]) -> Any:
        """Load the entry at ``path``; evict and return None when unusable."""
        if not path.exists():
            return None
        try:
            artifact = load(path)
        except (ReproError, ValueError, KeyError, OSError):
            self.evictions += 1
            self._evict(path)
            return None
        self.hits += 1
        return artifact

    # -- maintenance -----------------------------------------------------

    def invalidate(self, kind: Optional[str] = None) -> int:
        """Drop cached entries (all, or just one kind); returns the count."""
        dropped = 0
        for path, entry_kind in self._entries():
            if kind is None or entry_kind == kind:
                self._evict(path)
                dropped += 1
        return dropped

    def stats(self) -> CacheStats:
        entries = list(self._entries())
        by_kind: Dict[str, int] = {}
        total = 0
        for path, entry_kind in entries:
            by_kind[entry_kind] = by_kind.get(entry_kind, 0) + 1
            total += self._size_of(path)
        return CacheStats(
            entries=len(entries),
            total_bytes=total,
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            by_kind=by_kind,
        )

    # -- internals -------------------------------------------------------

    def _entries(self) -> List[Tuple[Path, str]]:
        if not self._root.is_dir():
            return []
        out: List[Tuple[Path, str]] = []
        for path in sorted(self._root.glob("*.jsonl")):
            kind = path.stem.rsplit("-", 1)[0]
            out.append((path, kind))
        return out

    def _sidecar(self, path: Path) -> Path:
        return path.with_suffix(".meta.json")

    def _size_of(self, path: Path) -> int:
        """Entry size in bytes; 0 when it raced with an eviction."""
        try:
            return path.stat().st_size
        except OSError:
            return 0

    def _evict(self, path: Path) -> None:
        # Eviction is idempotent: a target already deleted (possibly by
        # a concurrent process) only bumps the race counter.
        for target in (path, self._sidecar(path)):
            try:
                os.unlink(target)
            except OSError:
                self.evict_races += 1

    def _write_sidecar(self, path: Path, kind: str, config: Any) -> None:
        from repro.io.jsonl import atomic_writer

        meta = {
            "kind": kind,
            "fingerprint": self.fingerprint(kind, config),
            "schema_version": self._schema_version,
            "created_unix": time.time(),
            "config": _canonical(config),
        }
        with atomic_writer(self._sidecar(path)) as f:
            f.write(json.dumps(meta, sort_keys=True, indent=2) + "\n")


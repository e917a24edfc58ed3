"""Performance subsystem: artifact caching, checkpoints and columns.

The two data factories (call telemetry and the r/Starlink corpus) run
every unit of work — a call, a day — on its own RNG substream, in one
in-process loop.  This package provides:

* :class:`ArtifactCache` — content-addressed persistence of generated
  datasets keyed on a config fingerprint + schema version;
* :class:`CheckpointStore` — durable, verified progress in numbered
  shards, which the stream pipeline uses to resume from its last epoch;
* :mod:`repro.perf.columnar` — the struct-of-arrays query layer the
  analysis read paths run on (:func:`participant_columns`,
  :func:`corpus_columns`).

See ``docs/performance.md`` for the architecture (its §4 for the
failure and resume model, §6 for the columnar layer).
"""

from repro.perf.cache import (
    ARTIFACT_SCHEMA_VERSION,
    ArtifactCache,
    CacheStats,
    config_fingerprint,
    default_cache_root,
)
from repro.perf.columnar import (
    COLUMNS_SCHEMA,
    CorpusColumns,
    ParticipantColumns,
    SentimentBlock,
    corpus_columns,
    participant_columns,
)
from repro.perf.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointStore,
    Shard,
    shard_fingerprint,
)

__all__ = [
    "ARTIFACT_SCHEMA_VERSION",
    "ArtifactCache",
    "CacheStats",
    "CHECKPOINT_SCHEMA_VERSION",
    "CheckpointStore",
    "COLUMNS_SCHEMA",
    "CorpusColumns",
    "config_fingerprint",
    "corpus_columns",
    "default_cache_root",
    "ParticipantColumns",
    "participant_columns",
    "SentimentBlock",
    "Shard",
    "shard_fingerprint",
]

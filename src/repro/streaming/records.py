"""The unit of streaming ingestion: one timestamped measurement.

A :class:`StreamRecord` is the event the generators emit and the
pipeline ingests.  Event time lives on a float axis (seconds since the
stream's epoch) so watermark arithmetic stays exact; adapters that emit
out of ``datetime``-stamped datasets convert once at the boundary.

Each record carries a content **fingerprint** — the same SHA-256
identity-binding scheme :func:`repro.perf.checkpoint.shard_fingerprint`
uses for shards — which is what the dedup stage keys on: a duplicated
delivery of the same record always hashes the same, while two distinct
measurements (different source, key, time or value) never collide.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Any, Dict, Tuple

from repro.errors import SchemaError

#: Detector-facing record roles: ``network`` metrics are candidate root
#: causes; ``experience`` metrics (MOS, sentiment) are what users feel.
RECORD_ROLES: Tuple[str, ...] = ("network", "experience")


def record_fingerprint(
    source: str, metric: str, key: str, event_time_s: float, value: float
) -> str:
    """SHA-256 identity of one stream record.

    Binds the record's origin, subject and payload the way
    ``shard_fingerprint`` binds a shard to its run — ``repr`` of the
    floats keeps the digest exact (no formatting rounding), so a
    redelivered record hashes identically and nothing else does.
    """
    blob = f"{source}:{metric}:{key}:{event_time_s!r}:{value!r}"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class StreamRecord:
    """One measurement on the stream.

    Attributes:
        event_time_s: when the measurement *happened*, in seconds on the
            stream's event-time axis (not when it arrived — the fault
            plan decides that).
        source: producing feed (``"telemetry"``, ``"social"``, ...).
        metric: measurement name (``"latency_ms"``, ``"mos"``, ...).
        value: numeric payload.
        key: the measured unit (user / post id) — part of the
            fingerprint, so two users measured at the same instant are
            distinct records.
        role: ``network`` or ``experience`` (drives attribution).
    """

    event_time_s: float
    source: str
    metric: str
    value: float
    key: str = ""
    role: str = "network"

    def __post_init__(self) -> None:
        if not self.source:
            raise SchemaError("stream record requires a source")
        if not self.metric:
            raise SchemaError("stream record requires a metric name")
        if self.role not in RECORD_ROLES:
            raise SchemaError(
                f"role must be one of {RECORD_ROLES}, got {self.role!r}"
            )
        # A NaN event time never passes the watermark and an infinite
        # one overflows the operators' window arithmetic, so either
        # would stall or crash the whole stream, not just this record.
        if not math.isfinite(self.event_time_s):
            raise SchemaError("event_time_s must be finite")
        if self.event_time_s < 0:
            raise SchemaError("event_time_s must be non-negative")
        if not math.isfinite(self.value):
            raise SchemaError("value must be finite")

    @property
    def fingerprint(self) -> str:
        return record_fingerprint(
            self.source, self.metric, self.key, self.event_time_s, self.value
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form (checkpointed reorder buffers round-trip this)."""
        return {
            "event_time_s": self.event_time_s,
            "source": self.source,
            "metric": self.metric,
            "value": self.value,
            "key": self.key,
            "role": self.role,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "StreamRecord":
        try:
            return cls(
                event_time_s=float(data["event_time_s"]),
                source=str(data["source"]),
                metric=str(data["metric"]),
                value=float(data["value"]),
                key=str(data.get("key", "")),
                role=str(data.get("role", "network")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"bad stream record: {exc}") from exc

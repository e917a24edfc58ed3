"""The unit of streaming ingestion: one timestamped measurement.

A :class:`StreamRecord` is the event the generators emit and the
pipeline ingests.  Event time lives on a float axis (seconds since the
stream's epoch) so watermark arithmetic stays exact; adapters that emit
out of ``datetime``-stamped datasets convert once at the boundary.

Each record has a content **fingerprint** — the same SHA-256
identity-binding scheme :func:`repro.perf.checkpoint.shard_fingerprint`
uses for shards — over its source, metric, key, event time and value.
A duplicated delivery of the same record always hashes the same, while
two distinct measurements (different source, key, time or value) never
collide: the string fields are escaped before they are joined, and
time and value are always stored as floats, so ``5`` and ``5.0`` are
one measurement.  The dedup stage keys on the same identity without
hashing it (:mod:`repro.streaming.dedup`); the hash is taken only when
a checkpoint writes the dedup table.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from numbers import Real
from typing import Any, Dict, Tuple

from repro.errors import SchemaError

#: Detector-facing record roles: ``network`` metrics are candidate root
#: causes; ``experience`` metrics (MOS, sentiment) are what users feel.
RECORD_ROLES: Tuple[str, ...] = ("network", "experience")

_INF = math.inf
_set = object.__setattr__


def _escape(field: str) -> str:
    """``field`` with ``\\`` and ``:`` backslash-escaped.

    Joined escaped fields split back one way only, and a field holding
    neither character is unchanged.
    """
    return field.replace("\\", "\\\\").replace(":", "\\:")


def record_fingerprint(
    source: str, metric: str, key: str, event_time_s: float, value: float
) -> str:
    """SHA-256 identity of one stream record.

    Binds the record's origin, subject and payload the way
    ``shard_fingerprint`` binds a shard to its run — ``repr`` of the
    floats keeps the digest exact (no formatting rounding), so a
    redelivered record hashes identically and nothing else does.
    """
    blob = (
        f"{_escape(source)}:{_escape(metric)}:{_escape(key)}:"
        f"{event_time_s!r}:{value!r}"
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _real(x: Any, name: str) -> float:
    """``x`` as a float: a time or value must be a real number, not a bool."""
    if isinstance(x, Real) and not isinstance(x, bool):
        return float(x)
    raise SchemaError(f"{name} must be a real number, got {type(x).__name__}")


@dataclass(frozen=True, init=False)
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

    Every delivery builds one, so ``__init__`` is written out: it checks
    the arguments as locals and stores the six slots directly.  The
    dataclass supplies equality, hashing, ``repr`` and frozenness.
    """

    __slots__ = ("event_time_s", "source", "metric", "value", "key", "role")

    event_time_s: float
    source: str
    metric: str
    value: float
    key: str
    role: str

    def __init__(
        self,
        event_time_s: float,
        source: str,
        metric: str,
        value: float,
        key: str = "",
        role: str = "network",
    ) -> None:
        if not source:
            raise SchemaError("stream record requires a source")
        if not metric:
            raise SchemaError("stream record requires a metric name")
        if role not in RECORD_ROLES:
            raise SchemaError(
                f"role must be one of {RECORD_ROLES}, got {role!r}"
            )
        # Dedup keys on these fields as they are, the fingerprint on
        # their text: only strings make the two agree.
        if (
            source.__class__ is not str
            or metric.__class__ is not str
            or key.__class__ is not str
        ):
            for field in (source, metric, key):
                if not isinstance(field, str):
                    raise SchemaError(
                        "source, metric and key must be strings, got "
                        f"{type(field).__name__}"
                    )
        if event_time_s.__class__ is not float:
            event_time_s = _real(event_time_s, "event_time_s")
        # A NaN event time never passes the watermark and an infinite
        # one overflows the operators' window arithmetic, so either
        # would stall or crash the whole stream, not just this record.
        if not 0.0 <= event_time_s < _INF:
            if not math.isfinite(event_time_s):
                raise SchemaError("event_time_s must be finite")
            raise SchemaError("event_time_s must be non-negative")
        if value.__class__ is not float:
            value = _real(value, "value")
        if not -_INF < value < _INF:
            raise SchemaError("value must be finite")
        _set(self, "event_time_s", event_time_s)
        _set(self, "source", source)
        _set(self, "metric", metric)
        _set(self, "value", value)
        _set(self, "key", key)
        _set(self, "role", role)

    def __setstate__(self, state: Tuple[None, Dict[str, Any]]) -> None:
        # copy and pickle restore slots through setattr, which a frozen
        # record refuses.
        for name, value in state[1].items():
            _set(self, name, value)

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
                float(data["event_time_s"]),
                str(data["source"]),
                str(data["metric"]),
                float(data["value"]),
                str(data.get("key", "")),
                str(data.get("role", "network")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"bad stream record: {exc}") from exc

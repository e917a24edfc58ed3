"""The streaming half of trust: an online gate the pipeline consults.

Batch trust scoring (:mod:`repro.integrity.trust`) sees the whole
corpus at once; a stream cannot wait.  :class:`OnlineTrustGate` keeps
O(keys) state and decides per record, in arrival order, whether the
record looks like organic measurement or an attack flood:

* **burst** — one (source, key) producing more records inside the
  sliding window than any organic unit does;
* **repetition** — one (source, key) emitting the same (metric, value)
  payload over and over (the streaming face of duplicate-text
  fingerprinting).

Quarantined records are counted out of the aggregate path by the
pipeline (ledger bucket ``quarantined``), and the gate remembers the
recent quarantine density so the change-point stage can ask: *was this
shift preceded by an attack burst?*  — the disambiguation between
"users are unhappy" and "someone is shouting", surfaced as the
``suspect`` flag on :class:`~repro.streaming.detector.ChangePoint`.

Everything here is event-time driven and checkpointable
(``state_dict`` / ``load_state``), so crash-resume soaks stay
byte-identical.
"""

from __future__ import annotations

import math
from collections import OrderedDict, deque
from collections.abc import Mapping
from numbers import Real
from typing import Any, Deque, Dict, List, Tuple

from repro.errors import ConfigError, SchemaError

__all__ = ["BoundaryReport", "OnlineTrustGate", "parse_stream_dicts"]

#: Hard count bound on the quarantine-time history kept for
#: :meth:`OnlineTrustGate.burst_active` — far above what any change
#: point's evaluation lag can span, so it only guards memory.
SUSPECT_HISTORY_CAP = 4096


class OnlineTrustGate:
    """Bounded per-key burst/repetition screen for stream records."""

    def __init__(
        self,
        window_s: float = 60.0,
        burst_limit: int = 30,
        repeat_limit: int = 8,
        max_keys: int = 512,
        suspect_window_s: float = 120.0,
        suspect_min_quarantined: int = 5,
    ) -> None:
        if window_s <= 0 or suspect_window_s <= 0:
            raise ConfigError("gate windows must be positive")
        if burst_limit < 1 or repeat_limit < 1:
            raise ConfigError("gate limits must be >= 1")
        if max_keys < 1:
            raise ConfigError("max_keys must be >= 1")
        if suspect_min_quarantined < 1:
            raise ConfigError("suspect_min_quarantined must be >= 1")
        self.window_s = float(window_s)
        self.burst_limit = int(burst_limit)
        self.repeat_limit = int(repeat_limit)
        self.max_keys = int(max_keys)
        self.suspect_window_s = float(suspect_window_s)
        self.suspect_min_quarantined = int(suspect_min_quarantined)
        # (source, key) -> [times, metric, value, run]: the event times
        # inside the window, the last payload and how many times in a
        # row it came.  LRU by last observation, evicted beyond max_keys.
        self._keys: "OrderedDict[Tuple[str, str], List[Any]]" = OrderedDict()
        self._recent_quarantined: Deque[float] = deque()
        self.observed = 0
        self.quarantined = 0

    def observe(self, record) -> bool:
        """Fold one record in; True = quarantine (keep it out of aggregates).

        A payload repeats when metric and value are equal and, for a
        zero value, its sign is too: ``0.0`` and ``-0.0`` are two
        payloads, as their ``repr`` texts in a checkpoint are.
        """
        self.observed += 1
        t = record.event_time_s
        key = (record.source, record.key)
        keys = self._keys
        state = keys.get(key)
        if state is None:
            state = keys[key] = [deque(), None, None, 0]
        else:
            keys.move_to_end(key)
        while len(keys) > self.max_keys:
            keys.popitem(last=False)
        times: Deque[float] = state[0]
        times.append(t)
        cutoff = t - self.window_s
        while times[0] < cutoff:
            times.popleft()
        metric = record.metric
        value = record.value
        last = state[2]
        if metric == state[1] and value == last and (
            value or repr(value) == repr(last)
        ):
            state[3] += 1
        else:
            state[1] = metric
            state[2] = value
            state[3] = 1
        verdict = (
            len(times) > self.burst_limit or state[3] > self.repeat_limit
        )
        if verdict:
            self.quarantined += 1
            self._recent_quarantined.append(t)
            # Bound the history by count, never by ``t``: the caller
            # evaluates :meth:`burst_active` at change-point instants
            # that lag the latest observation by a queue's worth of
            # event time, so time-pruning here would make the answer
            # depend on how far ingestion had advanced at evaluation
            # time (and crash-resume replays would diverge).
            while len(self._recent_quarantined) > SUSPECT_HISTORY_CAP:
                self._recent_quarantined.popleft()
        return verdict

    def burst_active(self, at_s: float) -> bool:
        """Were enough records quarantined just before ``at_s``?

        The change-point disambiguation question: a level shift whose
        run-up is dense with quarantined records is flagged *suspect*
        (attack burst) rather than trusted as a real network event.
        Callers evaluate change points in event-time order, so history
        older than ``at_s``'s window can be pruned here — and *only*
        here, which keeps the answer a pure function of the quarantine
        record regardless of how far ingestion has run ahead.
        """
        while (
            self._recent_quarantined
            and self._recent_quarantined[0] < at_s - self.suspect_window_s
        ):
            self._recent_quarantined.popleft()
        count = sum(
            1 for t in self._recent_quarantined
            if t <= at_s
        )
        return count >= self.suspect_min_quarantined

    # -- checkpointing ----------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """The per-key state as parallel columns in LRU order, each
        key's window times counted in ``n_times`` over one flat
        ``times`` column."""
        keys = list(self._keys)
        states = list(self._keys.values())
        return {
            "source": [source for source, _ in keys],
            "key": [key for _, key in keys],
            "metric": [state[1] for state in states],
            "value": [state[2] for state in states],
            "run": [state[3] for state in states],
            "n_times": [len(state[0]) for state in states],
            "times": [t for state in states for t in state[0]],
            "recent_quarantined": list(self._recent_quarantined),
            "observed": self.observed,
            "quarantined": self.quarantined,
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        times = state.get("times", [])
        self._keys = OrderedDict()
        stop = 0
        for source, key, metric, value, run, n_times in zip(
            state.get("source", []), state.get("key", []),
            state.get("metric", []), state.get("value", []),
            state.get("run", []), state.get("n_times", []),
        ):
            start, stop = stop, stop + int(n_times)
            self._keys[(str(source), str(key))] = [
                deque(float(t) for t in times[start:stop]), str(metric),
                float(value), int(run),
            ]
        self._recent_quarantined = deque(
            float(t) for t in state.get("recent_quarantined", [])
        )
        self.observed = int(state.get("observed", 0))
        self.quarantined = int(state.get("quarantined", 0))


#: Quarantine reasons the boundary parser distinguishes.
BOUNDARY_REASONS: Tuple[str, ...] = (
    "missing_field", "bad_value", "bad_event_time", "other",
)


class BoundaryReport:
    """Outcome of validating raw stream dicts at the ingestion boundary."""

    def __init__(
        self, records: Tuple, quarantined: Dict[str, int]
    ) -> None:
        self.records = records
        self.quarantined = dict(quarantined)

    @property
    def n_quarantined(self) -> int:
        return sum(self.quarantined.values())

    def summary(self) -> str:
        parts = ", ".join(
            f"{reason}={self.quarantined[reason]}"
            for reason in BOUNDARY_REASONS
            if self.quarantined.get(reason)
        )
        return (
            f"[boundary] parsed={len(self.records)} "
            f"quarantined={self.n_quarantined}"
            + (f" ({parts})" if parts else "")
        )


def parse_stream_dicts(dicts) -> BoundaryReport:
    """Validate raw dicts into StreamRecords, counting rejects by reason.

    The trusting path (``StreamRecord.from_dict`` on everything) turns
    one malformed field into a dead pipeline; this boundary swallows
    nothing silently — every reject lands in exactly one reason bucket,
    mirroring the exactly-once ledger discipline downstream.
    """
    from repro.streaming.records import StreamRecord

    records = []
    quarantined = {reason: 0 for reason in BOUNDARY_REASONS}
    for data in dicts:
        try:
            records.append(StreamRecord.from_dict(data))
        except SchemaError:
            quarantined[_reject_reason(data)] += 1
    return BoundaryReport(records=tuple(records), quarantined=quarantined)


def _reject_reason(data) -> str:
    """Classify one rejected dict into a :data:`BOUNDARY_REASONS` bucket.

    By the record's own rule: a time must be a real number (not a
    bool) in ``[0, inf)``, a value a finite real number (not a bool).
    Anything else the record refuses, such as a non-string source, or
    an entry that is not a mapping at all, is ``other``.
    """
    if not isinstance(data, Mapping):
        return "other"
    if any(
        field not in data
        for field in ("event_time_s", "source", "metric", "value")
    ):
        return "missing_field"
    event_time = data["event_time_s"]
    if not (_is_real(event_time) and 0.0 <= event_time < math.inf):
        return "bad_event_time"
    value = data["value"]
    if not (_is_real(value) and math.isfinite(value)):
        return "bad_value"
    return "other"


def _is_real(x: Any) -> bool:
    return isinstance(x, Real) and not isinstance(x, bool)

"""Watermarks and bounded out-of-order buffering.

Real measurement feeds arrive late, duplicated and gappy (the
crowdsourced-QoE literature is blunt about this), so the pipeline never
assumes arrival order equals event order.  Instead it tracks a
**watermark** — "no record older than this will be accepted any more" —
and holds newer-than-watermark records in a bounded reorder buffer
until the watermark passes them, releasing them downstream in exact
event-time order.

Two invariants the tests pin down:

* the watermark is **monotonic**: it never moves backwards, no matter
  how disordered the arrivals are;
* the buffer is **bounded**: when it overflows, the oldest buffered
  record is force-released and the watermark floor is raised to its
  event time, so memory stays bounded at the cost of declaring
  deeper-than-capacity stragglers late.  Every forced release is
  counted — nothing is silently reordered.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Tuple

from repro.errors import ConfigError
from repro.streaming.records import StreamRecord

#: Watermark value before any record has been observed.
NO_WATERMARK = float("-inf")

#: One released delivery: the record and its fault tags.
Released = Tuple[StreamRecord, Tuple[str, ...]]
#: One heap entry: ``(event_time_s, arrival_seq) + Released``.
Entry = Tuple[float, int, StreamRecord, Tuple[str, ...]]


class WatermarkTracker:
    """Event-time watermark with a fixed allowed-lateness bound.

    The watermark is ``max(observed event time) - allowed_lateness_s``,
    floored by any forced-flush advances — both terms are monotone
    non-decreasing, so the watermark is too.  A record is **late** when
    its event time is strictly below the current watermark; late records
    never enter the reorder buffer (the pipeline applies its late
    policy instead).

    ``watermark_s`` is a stored value, not a property: ``observe``,
    ``advance_floor`` and ``load_state`` recompute it whenever one of
    its two terms changes, so reading it costs an attribute load.
    Treat it as read-only.
    """

    def __init__(self, allowed_lateness_s: float) -> None:
        if allowed_lateness_s < 0:
            raise ConfigError("allowed_lateness_s must be non-negative")
        self.allowed_lateness_s = float(allowed_lateness_s)
        self._max_event_time_s = NO_WATERMARK
        self._floor_s = NO_WATERMARK
        #: Current watermark (``-inf`` until the first observation).
        self.watermark_s = NO_WATERMARK
        self.observed = 0

    @property
    def max_event_time_s(self) -> float:
        return self._max_event_time_s

    def _refresh(self) -> None:
        if self._max_event_time_s == NO_WATERMARK:
            self.watermark_s = self._floor_s
        else:
            self.watermark_s = max(
                self._max_event_time_s - self.allowed_lateness_s,
                self._floor_s,
            )

    def observe(self, event_time_s: float) -> float:
        """Fold one event time in; returns the (possibly advanced) watermark."""
        self.observed += 1
        if event_time_s > self._max_event_time_s:
            self._max_event_time_s = float(event_time_s)
            self._refresh()
        return self.watermark_s

    def advance_floor(self, event_time_s: float) -> float:
        """Raise the watermark floor (buffer overflow forced a release)."""
        if event_time_s > self._floor_s:
            self._floor_s = float(event_time_s)
            self._refresh()
        return self.watermark_s

    # -- checkpointing ----------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        return {
            "max_event_time_s": (
                None if self._max_event_time_s == NO_WATERMARK
                else self._max_event_time_s
            ),
            "floor_s": (
                None if self._floor_s == NO_WATERMARK else self._floor_s
            ),
            "observed": self.observed,
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        max_t = state.get("max_event_time_s")
        floor = state.get("floor_s")
        self._max_event_time_s = (
            NO_WATERMARK if max_t is None else float(max_t)
        )
        self._floor_s = NO_WATERMARK if floor is None else float(floor)
        self.observed = int(state.get("observed", 0))
        self._refresh()


class ReorderBuffer:
    """Bounded min-heap of not-yet-releasable records.

    Records are keyed by ``(event_time_s, arrival_seq)`` so equal event
    times release in arrival order — a total, deterministic order, which
    is what makes replayed runs byte-identical.  Each entry carries the
    delivery's fault tags, so its terminal bucket is attributed to the
    delivery that reached it.  Checkpoints store each entry as one
    positional row with its tags.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ConfigError("reorder buffer capacity must be >= 1")
        self.capacity = int(capacity)
        self._heap: List[Entry] = []
        self._arrivals = 0

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def overflowing(self) -> bool:
        return len(self._heap) > self.capacity

    def due(self, watermark_s: float) -> bool:
        """True when :meth:`release` at ``watermark_s`` releases anything."""
        return bool(self._heap) and self._heap[0][0] <= watermark_s

    def push(self, record: StreamRecord, tags: Tuple[str, ...] = ()) -> None:
        """Buffer one delivery with its fault tags."""
        heapq.heappush(
            self._heap, (record.event_time_s, self._arrivals, record, tags),
        )
        self._arrivals += 1

    def pop_oldest(self) -> Released:
        """Force-release the earliest buffered ``(record, tags)``
        (overflow path)."""
        if not self._heap:
            raise ConfigError("cannot pop from an empty reorder buffer")
        return heapq.heappop(self._heap)[2:]

    def release(self, watermark_s: float) -> List[Released]:
        """Every ``(record, tags)`` the watermark has passed, in
        event-time order."""
        heap = self._heap
        released: List[Released] = []
        while heap and heap[0][0] <= watermark_s:
            released.append(heapq.heappop(heap)[2:])
        return released

    # -- checkpointing ----------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        # (event_time_s, seq) is unique, so sorting whole entries never
        # compares records.
        return {
            "arrivals": self._arrivals,
            "entries": [
                [
                    t, seq, record.source, record.metric, record.value,
                    record.key, record.role, list(tags),
                ]
                for t, seq, record, tags in sorted(self._heap)
            ],
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        self._arrivals = int(state.get("arrivals", 0))
        self._heap = []
        for t, seq, source, metric, value, key, role, tags in state.get(
            "entries", []
        ):
            record = StreamRecord(
                event_time_s=float(t), source=str(source),
                metric=str(metric), value=float(value), key=str(key),
                role=str(role),
            )
            self._heap.append((
                record.event_time_s, int(seq), record,
                tuple(str(tag) for tag in tags),
            ))
        heapq.heapify(self._heap)

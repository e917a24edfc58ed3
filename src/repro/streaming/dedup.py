"""Exactly-once admission: fingerprint-keyed duplicate suppression.

Sits *after* the reorder buffer, so it sees records in event-time
order — which makes eviction trivial: fingerprints older than
``watermark - horizon_s`` can never collide with a future on-time
record (anything that old would be declared late first), so the table
stays bounded without ever forgetting a fingerprint it still needs.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Tuple

from repro.errors import ConfigError
from repro.streaming.records import StreamRecord


class DedupFilter:
    """Bounded-memory duplicate detector keyed on record fingerprints.

    ``horizon_s`` must be at least the pipeline's allowed lateness:
    a duplicate can only be delivered on-time within the lateness
    window, so remembering fingerprints for the horizon guarantees
    every admissible duplicate is caught.
    """

    def __init__(self, horizon_s: float) -> None:
        if horizon_s <= 0:
            raise ConfigError("dedup horizon_s must be positive")
        self.horizon_s = float(horizon_s)
        self._seen: Dict[str, float] = {}
        self._order: Deque[Tuple[float, str]] = deque()
        self.evicted = 0

    def __len__(self) -> int:
        return len(self._seen)

    def seen(self, record: StreamRecord, fp: str) -> bool:
        """True (and no insert) for a duplicate; records first sightings.

        ``fp`` is the record's fingerprint, which the pipeline hashes
        once per delivery and carries through the reorder buffer.
        """
        if fp in self._seen:
            return True
        self._seen[fp] = record.event_time_s
        self._order.append((record.event_time_s, fp))
        return False

    def evict(self, watermark_s: float) -> int:
        """Forget fingerprints older than the horizon; returns the count."""
        cutoff = watermark_s - self.horizon_s
        dropped = 0
        while self._order and self._order[0][0] < cutoff:
            _, fp = self._order.popleft()
            self._seen.pop(fp, None)
            dropped += 1
        self.evicted += dropped
        return dropped

    # -- checkpointing ----------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        return {
            "entries": [[t, fp] for t, fp in self._order],
            "evicted": self.evicted,
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        self._order = deque(
            (float(t), str(fp)) for t, fp in state.get("entries", [])
        )
        self._seen = {fp: t for t, fp in self._order}
        self.evicted = int(state.get("evicted", 0))

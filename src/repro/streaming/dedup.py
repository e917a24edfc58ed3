"""Exactly-once admission: fingerprint-keyed duplicate suppression.

Sits *after* the reorder buffer, so it sees records in event-time
order.  The late check runs before the buffer and rejects every
delivery older than the watermark, and the watermark never moves
back.  So once the watermark passes a fingerprint's event time, no
future delivery carrying that fingerprint can reach this stage, and
the fingerprint is forgotten.  The table holds only records at the
watermark's own instant: it stays a handful of entries however long
the stream runs, and it never forgets a fingerprint it still needs.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Tuple

from repro.streaming.records import StreamRecord


class DedupFilter:
    """Duplicate detector keyed on record fingerprints.

    Every copy of a record shares its event time, and a copy older
    than the watermark is late before it gets here.  Remembering each
    fingerprint until the watermark passes its event time therefore
    catches every admissible duplicate.
    """

    def __init__(self) -> None:
        self._seen: Dict[str, float] = {}
        # (event_time_s, fingerprint) in arrival order, which is
        # event-time order downstream of the reorder buffer.
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
        """Forget fingerprints older than the watermark; returns the count.

        Entries at or above the watermark stay: a delivery with event
        time exactly at the watermark is still on time.
        """
        order = self._order
        dropped = 0
        while order and order[0][0] < watermark_s:
            del self._seen[order.popleft()[1]]
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

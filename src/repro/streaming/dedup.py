"""Exactly-once admission: identity-keyed duplicate suppression.

Sits *after* the reorder buffer, so it sees records in event-time
order.  The late check runs before the buffer and rejects every
delivery older than the watermark, and the watermark never moves
back.  So once the watermark passes a record's event time, no future
delivery carrying that identity can reach this stage, and the identity
is forgotten.  The table holds only records at the watermark's own
instant: it stays a handful of entries however long the stream runs,
and it never forgets an identity it still needs.

The table keys on the record's fields, not on their SHA-256
fingerprint: two deliveries have equal identities exactly when they
have equal fingerprints, and a checkpoint is the only thing that needs
the hash, so only :meth:`DedupFilter.state_dict` computes it.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Hashable, Optional, Set, Tuple

from repro.streaming.records import StreamRecord


class DedupFilter:
    """Duplicate detector keyed on record identity.

    Every copy of a record shares its event time, and a copy older
    than the watermark is late before it gets here.  Remembering each
    identity until the watermark passes its event time therefore
    catches every admissible duplicate.
    """

    def __init__(self) -> None:
        self._seen: Set[Hashable] = set()
        # (event_time_s, identity, record) in arrival order, which is
        # event-time order downstream of the reorder buffer.  An entry
        # restored from a checkpoint has its fingerprint as identity
        # and no record.
        self._order: Deque[
            Tuple[float, Hashable, Optional[StreamRecord]]
        ] = deque()
        self._restored = 0
        self.evicted = 0

    def __len__(self) -> int:
        return len(self._seen)

    def seen(self, record: StreamRecord) -> bool:
        """True (and no insert) for a duplicate; records first sightings.

        The identity is the fingerprint's fields as a tuple.  Floats
        that compare equal have equal ``repr`` except ``0.0`` and
        ``-0.0``, so a zero time or value is keyed by its ``repr``.
        Until the watermark passes the entries restored from a
        checkpoint, each delivery is also looked up by fingerprint.
        """
        t = record.event_time_s
        value = record.value
        identity = (
            record.source, record.metric, record.key,
            t or repr(t), value or repr(value),
        )
        seen = self._seen
        if identity in seen or (
            self._restored and record.fingerprint in seen
        ):
            return True
        seen.add(identity)
        self._order.append((t, identity, record))
        return False

    def evict(self, watermark_s: float) -> int:
        """Forget identities older than the watermark; returns the count.

        Entries at or above the watermark stay: a delivery with event
        time exactly at the watermark is still on time.
        """
        order = self._order
        seen = self._seen
        dropped = 0
        while order and order[0][0] < watermark_s:
            _, identity, record = order.popleft()
            seen.remove(identity)
            if record is None:
                self._restored -= 1
            dropped += 1
        self.evicted += dropped
        return dropped

    # -- checkpointing ----------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        return {
            "entries": [
                [t, identity if record is None else record.fingerprint]
                for t, identity, record in self._order
            ],
            "evicted": self.evicted,
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        self._order = deque(
            (float(t), str(fp), None) for t, fp in state.get("entries", [])
        )
        self._seen = {fp for _, fp, _ in self._order}
        self._restored = len(self._order)
        self.evicted = int(state.get("evicted", 0))

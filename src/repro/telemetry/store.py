"""In-memory call dataset with filtering and (de)serialisation.

:class:`CallDataset` is what the generator produces and what every §3
analysis consumes.  It deliberately mirrors how one would query the real
telemetry store: iterate calls, iterate participant sessions, filter by
call-level and participant-level predicates.
"""

from __future__ import annotations

import datetime as dt
import json
from pathlib import Path
from typing import Callable, Iterable, Iterator, List, Optional, Union

from repro.errors import SchemaError
from repro.telemetry.schema import CallRecord, ParticipantRecord


class CallDataset:
    """An ordered collection of :class:`CallRecord`."""

    def __init__(self, calls: Iterable[CallRecord] = ()) -> None:
        self._calls: List[CallRecord] = list(calls)

    def __len__(self) -> int:
        return len(self._calls)

    def __iter__(self) -> Iterator[CallRecord]:
        return iter(self._calls)

    def __getitem__(self, i: int) -> CallRecord:
        return self._calls[i]

    def append(self, call: CallRecord) -> None:
        if not isinstance(call, CallRecord):
            raise SchemaError(f"expected CallRecord, got {type(call).__name__}")
        self._calls.append(call)
        # Columns built by repro.perf.columnar are memoized here; a
        # mutation must drop them so the next query rebuilds.
        self.__dict__.pop("_columnar_cache", None)

    def participants(self) -> Iterator[ParticipantRecord]:
        """All participant sessions across all calls."""
        for call in self._calls:
            yield from call.participants

    @property
    def n_participants(self) -> int:
        return sum(call.size for call in self._calls)

    def filter_calls(self, predicate: Callable[[CallRecord], bool]) -> "CallDataset":
        return CallDataset(call for call in self._calls if predicate(call))

    def rated_participants(self) -> List[ParticipantRecord]:
        """Sessions that carry explicit feedback (the MOS subset)."""
        return [p for p in self.participants() if p.rating is not None]

    # --- persistence ---------------------------------------------------

    def to_jsonl(self, path: Union[str, Path]) -> None:
        """Write one JSON object per call (atomically: tmp + replace).

        An interrupted export can never leave a truncated file that
        later fails :meth:`from_jsonl` — the destination only appears
        once every record is on disk.
        """
        from repro.io.jsonl import atomic_writer

        with atomic_writer(path) as f:
            for call in self._calls:
                f.write(json.dumps(_call_to_dict(call)) + "\n")

    @classmethod
    def from_jsonl(cls, path: Union[str, Path]) -> "CallDataset":
        calls = []
        with open(path, encoding="utf-8") as f:
            for line_no, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    calls.append(_call_from_dict(json.loads(line)))
                except (ValueError, KeyError) as exc:
                    raise SchemaError(f"{path}:{line_no}: bad record: {exc}") from exc
        return cls(calls)


def _call_to_dict(call: CallRecord) -> dict:
    return {
        "call_id": call.call_id,
        "start": call.start.isoformat(),
        "scheduled_duration_s": call.scheduled_duration_s,
        "is_enterprise": call.is_enterprise,
        "participants": [
            {
                "call_id": p.call_id,
                "user_id": p.user_id,
                "platform": p.platform,
                "country": p.country,
                "session_duration_s": p.session_duration_s,
                "presence_pct": p.presence_pct,
                "cam_on_pct": p.cam_on_pct,
                "mic_on_pct": p.mic_on_pct,
                "dropped_early": p.dropped_early,
                "network": p.network,
                "rating": p.rating,
                "conditioning": p.conditioning,
            }
            for p in call.participants
        ],
    }


def _call_from_dict(data: dict) -> CallRecord:
    participants = [
        ParticipantRecord(
            call_id=pd["call_id"],
            user_id=pd["user_id"],
            platform=pd["platform"],
            country=pd["country"],
            session_duration_s=pd["session_duration_s"],
            presence_pct=pd["presence_pct"],
            cam_on_pct=pd["cam_on_pct"],
            mic_on_pct=pd["mic_on_pct"],
            dropped_early=pd["dropped_early"],
            network=pd["network"],
            rating=pd["rating"],
            conditioning=pd.get("conditioning", 0.5),
        )
        for pd in data["participants"]
    ]
    return CallRecord(
        call_id=data["call_id"],
        start=dt.datetime.fromisoformat(data["start"]),
        scheduled_duration_s=data["scheduled_duration_s"],
        is_enterprise=data["is_enterprise"],
        participants=participants,
    )

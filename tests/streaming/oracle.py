"""Oracles for the stream exports and the dedup rule.

:func:`telemetry_stream_records` and :func:`social_stream_records` are
the per-call and per-post loops that
:func:`~repro.telemetry.streams.telemetry_stream` and
:func:`~repro.social.streams.social_stream` ran before they read the
column blocks.  Each one walks the dataset's records and scores every
post with ``analyzer.score``, so no columnar code runs inside an oracle.

:class:`HorizonDedupFilter` is the dedup stage as it was before it
learned to forget at the watermark: it remembers every fingerprint for
``horizon_s`` seconds behind the watermark.

:func:`batch_window_aggregates` recomputes every complete sliding
window from the full record list, the batch answer the incremental
:class:`~repro.streaming.operators.SlidingWindowAggregate` must equal.

They live here only so tests can pin the code in ``src/`` against
them; nothing in ``src/`` calls them.
"""

from __future__ import annotations

import datetime as dt
import math
from collections import deque
from typing import Any, Deque, Dict, Iterable, List, Optional, Tuple

from repro.core.usaas.privacy import scrub_author
from repro.nlp.sentiment import SentimentAnalyzer
from repro.social.corpus import RedditCorpus
from repro.streaming.records import StreamRecord
from repro.telemetry.schema import NETWORK_METRICS
from repro.telemetry.store import CallDataset


def telemetry_stream_records(
    dataset: CallDataset,
    epoch: Optional[dt.datetime] = None,
) -> List[StreamRecord]:
    """Flatten a call dataset into event-time-ordered stream records."""
    calls = list(dataset)
    if not calls:
        return []
    if epoch is None:
        epoch = min(call.start for call in calls)
    records: List[StreamRecord] = []
    for call in calls:
        t = (call.start - epoch).total_seconds()
        for p in call.participants:
            key = scrub_author(p.user_id)
            for metric in NETWORK_METRICS:
                records.append(StreamRecord(
                    event_time_s=t,
                    source="telemetry",
                    metric=metric,
                    value=float(p.metric(metric)),
                    key=key,
                    role="network",
                ))
            if p.rating is not None:
                records.append(StreamRecord(
                    event_time_s=t,
                    source="telemetry",
                    metric="rating",
                    value=float(p.rating),
                    key=key,
                    role="experience",
                ))
    records.sort(key=lambda r: (r.event_time_s, r.metric, r.key))
    return records


def social_stream_records(
    corpus: RedditCorpus,
    epoch: Optional[dt.datetime] = None,
    analyzer: Optional[SentimentAnalyzer] = None,
) -> List[StreamRecord]:
    """Flatten a social corpus into event-time-ordered stream records."""
    posts = list(corpus)
    if not posts:
        return []
    if epoch is None:
        epoch = min(post.created for post in posts)
    analyzer = analyzer or SentimentAnalyzer()
    records: List[StreamRecord] = []
    for post in posts:
        t = (post.created - epoch).total_seconds()
        key = scrub_author(post.author)
        records.append(StreamRecord(
            event_time_s=t,
            source="social",
            metric="sentiment_polarity",
            value=float(analyzer.score(post.full_text).polarity),
            key=key,
            role="experience",
        ))
        if post.speed_test is not None:
            records.append(StreamRecord(
                event_time_s=t,
                source="social",
                metric="reported_downlink_mbps",
                value=float(post.speed_test.download_mbps),
                key=key,
                role="network",
            ))
    records.sort(key=lambda r: (r.event_time_s, r.metric, r.key))
    return records


class HorizonDedupFilter:
    """Horizon-bounded duplicate detector (the old dedup rule).

    Forgets a fingerprint only once the watermark is ``horizon_s``
    past its event time.  Same interface and state layout as
    :class:`~repro.streaming.dedup.DedupFilter`, so a pipeline can run
    either one.
    """

    def __init__(self, horizon_s: float) -> None:
        self.horizon_s = float(horizon_s)
        self._seen: Dict[str, float] = {}
        self._order: Deque[Tuple[float, str]] = deque()
        self.evicted = 0

    def __len__(self) -> int:
        return len(self._seen)

    def seen(self, record: StreamRecord, fp: str) -> bool:
        if fp in self._seen:
            return True
        self._seen[fp] = record.event_time_s
        self._order.append((record.event_time_s, fp))
        return False

    def evict(self, watermark_s: float) -> int:
        cutoff = watermark_s - self.horizon_s
        dropped = 0
        while self._order and self._order[0][0] < cutoff:
            _, fp = self._order.popleft()
            self._seen.pop(fp, None)
            dropped += 1
        self.evicted += dropped
        return dropped

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


def batch_window_aggregates(
    records: Iterable[StreamRecord],
    window_s: float,
    slide_s: float,
) -> Dict[Tuple[str, float], Tuple[float, int]]:
    """Batch recompute of every complete window.

    Scans the *full* record list and returns
    ``(metric, window_end_s) -> (mean, count)`` for exactly the windows
    the incremental operator would close by the final watermark (window
    ends at or before the last event time).
    """
    sums: Dict[Tuple[str, int], List[float]] = {}
    max_t = float("-inf")
    for record in records:
        t = record.event_time_s
        max_t = max(max_t, t)
        k = math.floor(t / slide_s) + 1
        while k * slide_s <= t + window_s:
            cell = sums.setdefault((record.metric, k), [0.0, 0.0])
            cell[0] += record.value
            cell[1] += 1.0
            k += 1
    return {
        (metric, k * slide_s): (cell[0] / cell[1], int(cell[1]))
        for (metric, k), cell in sums.items()
        if k * slide_s <= max_t
    }

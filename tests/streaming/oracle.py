"""Record-at-a-time oracles for the columnar stream exports.

These are the per-call and per-post loops that
:func:`~repro.telemetry.streams.telemetry_stream` and
:func:`~repro.social.streams.social_stream` ran before they read the
column blocks.  They live here only so tests can pin the exports ``==``
against them; nothing in ``src/`` calls them.  Each one walks the
dataset's records and scores every post with ``analyzer.score``, so no
columnar code runs inside an oracle.
"""

from __future__ import annotations

import datetime as dt
from typing import List, Optional

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

"""Social corpus → stream records (the live-ingestion boundary).

The §4 batch analyses score a finished corpus; a deployment would score
posts as they are published.  This adapter emits, per post, the
sentiment polarity as an ``experience``-role record and — for the posts
that carry one — the user-reported speed test as a ``network``-role
record, both stamped on the float event-time axis (seconds since the
corpus's first post, or an explicit epoch).

It reads the corpus's memoized
:func:`~repro.perf.columnar.corpus_columns` block and, with the default
analyzer, the sentiment block the §4 analyses and the USaaS signal
export share, so no post is scored twice.

Authors are scrubbed at this boundary with the same
:func:`~repro.core.usaas.privacy.scrub_author` scheme the batch
adapters use: raw handles never reach the streaming layer.
"""

from __future__ import annotations

import datetime as dt
from typing import List, Optional

from repro.core.usaas.privacy import scrub_all
from repro.nlp.sentiment import SentimentAnalyzer
from repro.perf.columnar import corpus_columns
from repro.social.corpus import RedditCorpus
from repro.streaming.records import StreamRecord


def social_stream(
    corpus: RedditCorpus,
    epoch: Optional[dt.datetime] = None,
    analyzer: Optional[SentimentAnalyzer] = None,
) -> List[StreamRecord]:
    """Flatten a social corpus into event-time-ordered stream records.

    With the default analyzer (``None``) the polarity comes from the
    corpus-wide sentiment block shared with the §4 analyses.  An
    explicit ``analyzer`` must have ``score_many`` (a configured
    :class:`SentimentAnalyzer` or a
    :class:`~repro.core.usaas.adapters.FallbackSentimentChain`); it
    scores the posts afresh.
    """
    cols = corpus_columns(corpus)
    if len(cols) == 0:
        return []
    if epoch is None:
        epoch = min(cols.created)
    polarity = cols.sentiment(analyzer).polarity.tolist()
    speed_of = {
        i: float(post.speed_test.download_mbps)
        for i, post in zip(
            cols.speed_indices.tolist(), cols.speed_share_posts()
        )
    }
    keys = scrub_all(cols.author)
    records: List[StreamRecord] = []
    for i, (created, key) in enumerate(zip(cols.created, keys)):
        t = (created - epoch).total_seconds()
        records.append(StreamRecord(
            event_time_s=t,
            source="social",
            metric="sentiment_polarity",
            value=polarity[i],
            key=key,
            role="experience",
        ))
        if i in speed_of:
            records.append(StreamRecord(
                event_time_s=t,
                source="social",
                metric="reported_downlink_mbps",
                value=speed_of[i],
                key=key,
                role="network",
            ))
    records.sort(key=lambda r: (r.event_time_s, r.metric, r.key))
    return records

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
adapters use, from the scrubbed column the block memoizes for both:
raw handles never reach the streaming layer.
"""

from __future__ import annotations

import datetime as dt
from operator import attrgetter
from typing import List, Optional

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
    :class:`SentimentAnalyzer`, for one); it scores the posts afresh.
    """
    cols = corpus_columns(corpus)
    if len(cols) == 0:
        return []
    if epoch is None:
        epoch = min(cols.created)
    polarity = cols.sentiment(analyzer).polarity.tolist()
    keys = cols.scrubbed_authors()
    times = [(created - epoch).total_seconds() for created in cols.created]
    # One metric at a time, each in post order: the stable sort then
    # breaks ties in the same order as one pass over the posts.
    records = [
        StreamRecord(t, "social", "sentiment_polarity", value, key, "experience")
        for t, value, key in zip(times, polarity, keys)
    ]
    records += [
        StreamRecord(
            times[i], "social", "reported_downlink_mbps",
            float(post.speed_test.download_mbps), keys[i], "network",
        )
        for i, post in zip(
            cols.speed_indices.tolist(), cols.speed_share_posts()
        )
    ]
    records.sort(key=attrgetter("event_time_s", "metric", "key"))
    return records

"""Adapters: domain datasets → unified signal series.

These are the ingestion shims a real USaaS deployment would run next to
each source: the conferencing service exports per-session user actions
(implicit) and ratings (explicit); the social pipeline exports per-post
sentiment polarity weighted by popularity.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Union

import numpy as np

from repro.core.signals import SignalKind, SignalSeries
from repro.errors import QueryError, SchemaError
from repro.perf.columnar import corpus_columns, participant_columns
from repro.telemetry.store import CallDataset


#: Per-participant signal layout: four implicit rows, then the sparse
#: explicit rating row.  Order matters — it is the export order.
_TELEMETRY_METRICS = np.array(
    ["presence", "cam_on", "mic_on", "drop_off", "rating"], dtype=object
)
_TELEMETRY_KINDS = np.array(
    [SignalKind.IMPLICIT] * 4 + [SignalKind.EXPLICIT], dtype=object
)
#: Per-post signal layout: polarity, then the sparse speed report.
_SOCIAL_METRICS = np.array(
    ["sentiment_polarity", "reported_downlink_mbps"], dtype=object
)


def telemetry_signals(
    dataset: CallDataset,
    network: Union[str, Sequence[str]],
    service: str = "teams",
) -> SignalSeries:
    """Export a call dataset as implicit (+ sparse explicit) signals.

    Each participant session becomes four implicit signals (presence,
    camera, microphone, drop-off) plus an explicit ``rating`` signal when
    the session was rated.

    Args:
        dataset: a ``CallDataset`` or its ``ParticipantColumns`` block.
        network: one network label for every session, or one label per
            session in ``participant_columns`` row order (a real
            deployment would map client IPs to ASes).

    Raises:
        SchemaError: a session has no call start, as in a block built
            from bare participant records.
    """
    if isinstance(network, str) and not network:
        raise QueryError("a network label is required")
    cols = participant_columns(dataset)
    n = len(cols)
    series = SignalSeries()
    if not isinstance(network, str) and len(network) != n:
        raise QueryError(
            f"network has {len(network)} labels for {n} participant sessions"
        )
    if n == 0:
        return series
    missing = sum(start is None for start in cols.call_start)
    if missing:
        raise SchemaError(
            f"{missing} of {n} participant sessions lack a call start"
        )

    # Interleave: participant i contributes rows [starts[i], starts[i]+sizes[i])
    # — 4 implicit signals plus the rating row when one exists — in
    # call order, participants in call order.
    rated = ~np.isnan(cols.rating)
    sizes = 4 + rated.astype(np.int64)
    starts = np.cumsum(sizes) - sizes
    total = int(sizes.sum())
    row = np.repeat(np.arange(n), sizes)
    pos = np.arange(total) - starts[row]

    vmat = np.empty((5, n))
    vmat[0] = cols.presence_pct
    vmat[1] = cols.cam_on_pct
    vmat[2] = cols.mic_on_pct
    vmat[3] = 100.0 * cols.dropped_early
    vmat[4] = cols.rating  # NaN rows are never selected (pos 4 needs rated)

    series.extend_columns(
        (_TELEMETRY_KINDS, pos),
        (cols.call_start, row),
        network if isinstance(network, str) else (network, row),
        (_TELEMETRY_METRICS, pos),
        vmat[pos, row],
        service=service,
        attrs={
            "country": (cols.country, row),
            "platform": (cols.platform, row),
            "user": (cols.scrubbed_users(), row),
        },
    )
    return series


def social_signals(
    corpus: Any,
    network: str = "starlink",
    analyzer: Optional[Any] = None,
    service_of_topic: Optional[Dict[str, str]] = None,
) -> SignalSeries:
    """Export a social corpus as explicit sentiment signals.

    Each post becomes one ``sentiment_polarity`` signal in [-1, 1],
    weighted by popularity (upvotes + comments), so that one viral thread
    counts for the crowd behind it — which is also why the bias corrector
    exists downstream.  Posts carrying a speed test add a
    ``reported_downlink_mbps`` signal right after their polarity signal.

    ``corpus`` is anything :func:`~repro.perf.columnar.corpus_columns`
    accepts.  With the default analyzer the polarity comes from the
    corpus-wide sentiment block shared with the §4 analyses; any other
    scorer with ``score_many`` (e.g. a configured
    :class:`~repro.nlp.sentiment.SentimentAnalyzer`) scores the posts
    afresh.
    """
    cols = corpus_columns(corpus)
    n = len(cols)
    series = SignalSeries()
    if n == 0:
        return series
    block = cols.sentiment(analyzer)

    # Interleave: one polarity signal per post, plus the speed-report
    # signal right after it for posts carrying a speed test.
    has_speed = np.zeros(n, dtype=np.int64)
    has_speed[cols.speed_indices] = 1
    sizes = 1 + has_speed
    starts = np.cumsum(sizes) - sizes
    total = int(sizes.sum())
    row = np.repeat(np.arange(n), sizes)
    pos = np.arange(total) - starts[row]

    vmat = np.empty((2, n))
    vmat[0] = block.polarity
    vmat[1] = np.nan
    speed_idx = cols.speed_indices.tolist()
    vmat[1, cols.speed_indices] = np.fromiter(
        (cols.posts[i].speed_test.download_mbps for i in speed_idx),
        dtype=float,
        count=len(speed_idx),
    )
    wmat = np.empty((2, n))
    wmat[0] = np.maximum(1.0, cols.popularity)
    wmat[1] = 1.0

    topic_service = service_of_topic or {}
    # A post's service rides on its polarity row; the speed row has none.
    services = [topic_service.get(topic) for topic in cols.topic] + [None]

    series.extend_columns(
        SignalKind.EXPLICIT,
        (cols.created, row),
        network,
        (_SOCIAL_METRICS, pos),
        vmat[pos, row],
        service=(services, np.where(pos == 0, row, n)),
        weight=wmat[pos, row],
        attrs={
            "topic": (cols.topic, row),
            "user": (cols.scrubbed_authors(), row),
        },
    )
    return series

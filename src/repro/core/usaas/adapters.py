"""Adapters: domain datasets → unified signal series.

These are the ingestion shims a real USaaS deployment would run next to
each source: the conferencing service exports per-session user actions
(implicit) and ratings (explicit); the social pipeline exports per-post
sentiment polarity weighted by popularity.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

import numpy as np

from repro.core.signals import SignalKind, SignalSeries
from repro.core.usaas.privacy import scrub_all
from repro.errors import QueryError, SchemaError
from repro.nlp.sentiment import SentimentAnalyzer, SentimentScores
from repro.perf.columnar import corpus_columns, participant_columns
from repro.resilience.policy import Fallback
from repro.telemetry.store import CallDataset


class FallbackSentimentChain:
    """Sentiment scoring with graceful degradation.

    A real deployment scores posts with a hosted service (an Azure-style
    text-analytics API); when that dependency is down the pipeline must
    keep producing polarity signals rather than dropping the whole
    social feed.  This chain tries each ``(name, scorer)`` in order and
    always ends at the offline lexicon
    :class:`~repro.nlp.sentiment.SentimentAnalyzer`, which cannot fail
    on valid text.  It is a drop-in for the ``analyzer=`` argument of
    :func:`social_signals` and the §4 analyses: :meth:`score_many`
    scores a batch one text at a time, so every post keeps its own
    fallback accounting.

        chain = FallbackSentimentChain(("azure", azure_scorer))
        series = social_signals(corpus, analyzer=chain)
        chain.served_by  # {"azure": 812, "offline-lexicon": 44}
    """

    OFFLINE = "offline-lexicon"

    def __init__(self, *scorers, offline: Optional[SentimentAnalyzer] = None):
        offline = offline or SentimentAnalyzer()
        links = tuple(scorers) + ((self.OFFLINE, offline.score),)
        self._chain = Fallback(*links)
        self.fallback_calls = 0

    @property
    def served_by(self) -> Dict[str, int]:
        """How many calls each link answered."""
        return dict(self._chain.served_by)

    @property
    def degraded(self) -> bool:
        """True once any call was served by a non-primary link."""
        return self.fallback_calls > 0

    def score(self, text: str) -> SentimentScores:
        result = self._chain.call(text)
        if not isinstance(result.value, SentimentScores):
            raise SchemaError(
                f"sentiment scorer {result.used!r} returned "
                f"{type(result.value).__name__}, expected SentimentScores"
            )
        if result.degraded:
            self.fallback_calls += 1
        return result.value

    def score_many(self, texts: Iterable[str]) -> List[SentimentScores]:
        return [self.score(text) for text in texts]


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

    attrs_rows = [
        (("country", country), ("platform", platform), ("user", author))
        for country, platform, author in zip(
            cols.country, cols.platform, scrub_all(cols.user_id)
        )
    ]

    row_list = row.tolist()
    series.extend_columns(
        _TELEMETRY_KINDS[pos].tolist(),
        [cols.call_start[r] for r in row_list],
        network if isinstance(network, str) else [network[r] for r in row_list],
        _TELEMETRY_METRICS[pos].tolist(),
        vmat[pos, row],
        service=service,
        weight=1.0,
        attrs=[attrs_rows[r] for r in row_list],
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
    scorer with ``score_many`` (e.g. :class:`FallbackSentimentChain`)
    scores the posts afresh.
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
    attrs_rows = [
        (("topic", topic), ("user", author))
        for topic, author in zip(cols.topic, scrub_all(cols.author))
    ]
    services_row = [topic_service.get(topic) for topic in cols.topic]

    row_list = row.tolist()
    pos_list = pos.tolist()
    series.extend_columns(
        SignalKind.EXPLICIT,
        [cols.created[r] for r in row_list],
        network,
        _SOCIAL_METRICS[pos].tolist(),
        vmat[pos, row],
        service=[
            services_row[r] if p == 0 else None
            for p, r in zip(pos_list, row_list)
        ],
        weight=wmat[pos, row],
        attrs=[attrs_rows[r] for r in row_list],
    )
    return series

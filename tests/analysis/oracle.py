"""Record-at-a-time oracles for the §4 corpus analyses.

These are the per-post loops :func:`~repro.analysis.sentiment_timeline`,
:func:`~repro.analysis.outage_keyword_series` and
:func:`~repro.analysis.pos_vs_speed` ran before they moved onto the
shared :class:`~repro.perf.columnar.CorpusColumns` sentiment block.
They live here only so tests can pin the columnar results ``==`` against
them; nothing in ``src/`` calls them.  Each one walks the corpus's post
objects and scores text with the analyzer directly, so no columnar code
runs inside an oracle.
"""

from __future__ import annotations

from typing import Dict

from repro.analysis.fulcrum import FulcrumResult
from repro.analysis.outage_monitor import OutageSeries
from repro.analysis.sentiment_timeline import SentimentTimeline
from repro.core.timeline import DailySeries, Month, MonthlySeries, month_of
from repro.errors import AnalysisError
from repro.nlp.keywords import OUTAGE_KEYWORDS, KeywordDictionary
from repro.nlp.sentiment import SentimentAnalyzer, SentimentScores


def sentiment_timeline_records(corpus, analyzer=None) -> SentimentTimeline:
    analyzer = analyzer or SentimentAnalyzer()
    start = corpus.config.span_start
    end = corpus.config.span_end
    strong_pos = DailySeries.zeros(start, end)
    strong_neg = DailySeries.zeros(start, end)
    scores: Dict[str, SentimentScores] = {}
    posts = corpus.posts()
    for post, s in zip(posts, analyzer.score_many(p.full_text for p in posts)):
        scores[post.post_id] = s
        if s.is_strong_positive:
            strong_pos.add(post.date)
        elif s.is_strong_negative:
            strong_neg.add(post.date)
    return SentimentTimeline(
        strong_positive=strong_pos,
        strong_negative=strong_neg,
        scores=scores,
    )


def outage_keyword_series_records(
    corpus,
    dictionary: KeywordDictionary = OUTAGE_KEYWORDS,
    negative_only: bool = True,
    analyzer=None,
) -> OutageSeries:
    analyzer = analyzer or SentimentAnalyzer()
    start, end = corpus.config.span_start, corpus.config.span_end
    occurrences = DailySeries.zeros(start, end)
    threads = DailySeries.zeros(start, end)
    for post in corpus:
        if negative_only:
            s = analyzer.score(post.full_text)
            if s.negative <= max(s.positive, s.neutral):
                continue
        count = dictionary.count_matches(post.thread_text)
        if count > 0:
            occurrences.add(post.date, count)
            threads.add(post.date)
    return OutageSeries(occurrences=occurrences, threads=threads)


def pos_vs_speed_records(
    corpus,
    speed: MonthlySeries,
    analyzer=None,
    min_strong_posts: int = 5,
) -> FulcrumResult:
    analyzer = analyzer or SentimentAnalyzer()
    strong_pos: Dict[Month, int] = {}
    strong_neg: Dict[Month, int] = {}
    for post in corpus.speed_shares():
        s = analyzer.score(post.full_text)
        month = month_of(post.date)
        if s.is_strong_positive:
            strong_pos[month] = strong_pos.get(month, 0) + 1
        elif s.is_strong_negative:
            strong_neg[month] = strong_neg.get(month, 0) + 1
    values: Dict[Month, float] = {}
    for month in set(strong_pos) | set(strong_neg):
        p = strong_pos.get(month, 0)
        n = strong_neg.get(month, 0)
        if p + n >= min_strong_posts:
            values[month] = p / (p + n)
    if not values:
        raise AnalysisError(
            "no month had enough strong-sentiment speed-share posts"
        )
    pos = MonthlySeries.from_mapping(values, start=speed.start, end=speed.end)
    return FulcrumResult(pos=pos, speed=speed)

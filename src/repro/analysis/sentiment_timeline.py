"""Fig. 5a: daily strong-positive / strong-negative post counts.

§4.1: *"The sentiment analysis service assigns three different scores —
positive, negative, and neutral — to each piece of text ... We count the
number of posts with strong positive (≥0.7) or negative (≥0.7) scores
per day."*
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.timeline import DailySeries
from repro.errors import AnalysisError
from repro.nlp.sentiment import SentimentScores
from repro.perf.columnar import corpus_columns


@dataclass
class SentimentTimeline:
    """Daily strong-sentiment counts plus per-post scores.

    Attributes:
        strong_positive / strong_negative: dense daily count series.
        scores: per-post scores keyed by post id (reused by downstream
            analyses so the corpus is only scored once).
    """

    strong_positive: DailySeries
    strong_negative: DailySeries
    scores: Dict[str, SentimentScores]

    def combined(self) -> DailySeries:
        """Total strong-sentiment posts per day — the peak-ranking series."""
        out = DailySeries.zeros(self.strong_positive.start, self.strong_positive.end)
        out.values[:] = self.strong_positive.values + self.strong_negative.values
        return out

    def top_peaks(
        self, k: int = 3, min_separation_days: int = 7
    ) -> List[Tuple[dt.date, float]]:
        """The k largest strong-sentiment days, de-duplicating neighbours."""
        return self.combined().top_peaks(k, min_separation_days)

    def peak_polarity(self, day: dt.date) -> str:
        """Whether a peak day was driven by positive or negative posts."""
        pos = self.strong_positive[day]
        neg = self.strong_negative[day]
        if pos == 0 and neg == 0:
            raise AnalysisError(f"{day} has no strong-sentiment posts")
        return "positive" if pos >= neg else "negative"


def sentiment_timeline(
    corpus: Any,
    analyzer: Optional[Any] = None,
) -> SentimentTimeline:
    """Score every post and build the daily strong-sentiment series.

    ``corpus`` is anything :func:`~repro.perf.columnar.corpus_columns`
    accepts.  The shared per-day index and sentiment block replace a
    per-analysis corpus scan; with the default analyzer the block is
    scored once and reused by the outage monitor, the fulcrum and the
    USaaS export.  Any other scorer with ``score_many`` scores afresh.
    """
    cols = corpus_columns(corpus)
    start = cols.span_start
    end = cols.span_end
    strong_pos = DailySeries.zeros(start, end)
    strong_neg = DailySeries.zeros(start, end)
    block = cols.sentiment(analyzer)
    pos_mask = block.strong_positive
    # A strong-both post counts as positive only.
    neg_mask = block.strong_negative & ~pos_mask
    day = cols.day_index
    n_days = cols.n_days
    # Only strong posts are counted, so only those may raise for an
    # out-of-span date — the first one in post order.
    oob = (pos_mask | neg_mask) & ((day < 0) | (day >= n_days))
    if oob.any():
        i = int(np.flatnonzero(oob)[0])
        raise AnalysisError(
            f"{cols.created[i].date()} outside span {start}..{end}"
        )
    strong_pos.values[:] = np.bincount(day[pos_mask], minlength=n_days)
    strong_neg.values[:] = np.bincount(day[neg_mask], minlength=n_days)
    return SentimentTimeline(
        strong_positive=strong_pos,
        strong_negative=strong_neg,
        scores=dict(zip(cols.post_id, block.scores)),
    )

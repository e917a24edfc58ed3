"""Fig. 6: day-wise outage-keyword occurrences in negative threads.

§4.1: *"Fig. 6 plots the day-wise occurrences of these keywords in these
filtered Reddit threads.  Note that these occurrences are only counted if
the user sentiment attached to them was negative to avoid false
positives."*  The negative-sentiment filter is a parameter here because
DESIGN.md calls its ablation out: without it, positive posts that merely
mention outage vocabulary ("no outages since I got the dish!") pollute
the series.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

import numpy as np

from repro.core.timeline import DailySeries
from repro.errors import AnalysisError
from repro.nlp.keywords import OUTAGE_KEYWORDS, KeywordDictionary
from repro.perf.columnar import corpus_columns


@dataclass
class OutageSeries:
    """Daily keyword occurrences plus the contributing thread count."""

    occurrences: DailySeries
    threads: DailySeries

    def top_spike_days(
        self, k: int = 2, min_separation_days: int = 7
    ) -> List[Tuple[dt.date, float]]:
        return self.occurrences.top_peaks(k, min_separation_days)

    def transient_peak_days(
        self,
        spike_threshold: float,
        floor: float = 1.0,
    ) -> List[dt.date]:
        """Days with modest but non-trivial keyword activity.

        These are the "numerous shorter peaks ... correspond[ing] to local
        transient outages" — above the noise floor but below the headline
        spikes.
        """
        if spike_threshold <= floor:
            raise AnalysisError("spike_threshold must exceed floor")
        return [
            day for day, value in self.occurrences.items()
            if floor < value < spike_threshold
        ]


def outage_keyword_series(
    corpus: Any,
    dictionary: KeywordDictionary = OUTAGE_KEYWORDS,
    negative_only: bool = True,
    analyzer: Optional[Any] = None,
) -> OutageSeries:
    """Count outage keywords per day across (optionally negative) threads.

    Args:
        corpus: anything :func:`~repro.perf.columnar.corpus_columns`
            accepts.
        negative_only: apply the paper's negative-sentiment filter
            (threads with positive or neutral sentiment are dropped).
            The filter reads the corpus-wide sentiment block, scored
            once and shared with the other §4 analyses.
        analyzer: scorer for the filter (anything with ``score_many``);
            the default shares the memoized block.
    """
    cols = corpus_columns(corpus)
    occurrences = DailySeries.zeros(cols.span_start, cols.span_end)
    threads = DailySeries.zeros(cols.span_start, cols.span_end)
    if negative_only:
        # Keep a post only when its negative score beats both others.
        rows = np.flatnonzero(cols.sentiment(analyzer).negative_dominant)
    else:
        rows = np.arange(len(cols))
    for i in rows.tolist():
        post = cols.posts[i]
        count = dictionary.count_matches(post.thread_text)
        if count > 0:
            occurrences.add(post.date, count)
            threads.add(post.date)
    return OutageSeries(occurrences=occurrences, threads=threads)

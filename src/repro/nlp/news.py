"""Simulated news index — the paper's "search online for the keywords".

§4.1 annotates sentiment peaks by searching the web for the top word-cloud
unigrams (plus "Starlink") around the peak date.  Offline we search a
deterministic index instead.  The crucial behaviour to preserve is the
*negative* result: the 22 Apr '22 outage has no article, so the search
returns nothing and the pipeline must report the peak as unexplained by
the press — exactly what pushed the authors toward the Fig. 6 analysis.

The index itself is built by :mod:`repro.social.events` from the event
calendar; this module provides the article type and the search engine.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from typing import Iterable, List, Sequence

from repro.errors import AnalysisError
from repro.nlp.tokenize import words


@dataclass(frozen=True)
class NewsArticle:
    """One published article."""

    date: dt.date
    headline: str
    body: str
    source: str = "wire"

    def terms(self) -> set:
        return set(words(self.headline)) | set(words(self.body))


class NewsIndex:
    """Keyword + date-window search over a fixed article collection."""

    def __init__(self, articles: Iterable[NewsArticle] = ()) -> None:
        self._articles: List[NewsArticle] = sorted(
            articles, key=lambda a: a.date
        )

    def __len__(self) -> int:
        return len(self._articles)

    def add(self, article: NewsArticle) -> None:
        self._articles.append(article)
        self._articles.sort(key=lambda a: a.date)

    def search(
        self,
        keywords: Sequence[str],
        date: dt.date,
        window_days: int = 3,
        require_all: bool = False,
    ) -> List[NewsArticle]:
        """Articles within ±window_days matching the keywords.

        ``require_all=False`` (the default) matches any keyword, which is
        how a web search behaves; the query the paper uses appends
        'Starlink', so callers typically include it.
        """
        if not keywords:
            raise AnalysisError("at least one keyword required")
        if window_days < 0:
            raise AnalysisError("window_days must be >= 0")
        keys = {k.lower() for k in keywords}
        window = dt.timedelta(days=window_days)
        hits = []
        for article in self._articles:
            if abs((article.date - date).days) > window.days:
                continue
            terms = article.terms()
            matched = keys & terms
            if (require_all and matched == keys) or (not require_all and matched):
                hits.append(article)
        return hits

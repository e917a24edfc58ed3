"""Peak annotation: word clouds + news search (Fig. 5a labels, Fig. 5b).

§4.1: *"For each day, we: (a) generate word clouds from all posts
published, and (b) discover relevant news articles by searching online
for the keywords (top 3 uni-grams from word clouds), with the search
query appended with 'Starlink', for the custom date.  This pipeline
enables the framework to annotate sentiment peaks with news that drive
those peaks."*

The interesting case is the one where this *fails*: the 22 Apr '22 peak
has a clear word cloud (led by "outage") but no news — the annotation
returns an empty article list and the peak is flagged unexplained.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import AnalysisError
from repro.nlp.news import NewsArticle, NewsIndex
from repro.nlp.wordcloud import WordCloud, build_wordcloud
from repro.social.corpus import RedditCorpus


@dataclass(frozen=True)
class PeakAnnotation:
    """One annotated sentiment peak."""

    day: dt.date
    cloud: WordCloud
    search_keywords: Tuple[str, ...]
    articles: Tuple[NewsArticle, ...]

    @property
    def explained_by_news(self) -> bool:
        return len(self.articles) > 0

    @property
    def headline(self) -> Optional[str]:
        return self.articles[0].headline if self.articles else None


def annotate_peak(
    corpus: RedditCorpus,
    index: NewsIndex,
    day: dt.date,
    top_k_keywords: int = 3,
    window_days: int = 3,
) -> PeakAnnotation:
    """Build the cloud for a day and search the news for its top terms."""
    posts = corpus.posts_on(day)
    if not posts:
        raise AnalysisError(f"no posts on {day} to annotate")
    cloud = build_wordcloud(p.full_text for p in posts)
    keywords = tuple(w for w, _ in cloud.top_unigrams(top_k_keywords))
    if not keywords:
        raise AnalysisError(f"word cloud for {day} is empty")
    # The paper appends 'Starlink' to the query; with the generic domain
    # word stop-listed in clouds, adding it back scopes the news search.
    articles = tuple(
        index.search(list(keywords), day, window_days=window_days)
    )
    return PeakAnnotation(
        day=day,
        cloud=cloud,
        search_keywords=keywords,
        articles=articles,
    )

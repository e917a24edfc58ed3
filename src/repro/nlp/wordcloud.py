"""Word clouds: term frequencies over a set of texts.

§4.1 uses NLTK to build a word cloud per day and takes the *top three
unigrams* as search keywords for news annotation; the third most common
word on 22 Apr '22 was "outage".  :func:`build_wordcloud` reproduces
that: stopword-filtered unigram counts with an optional bigram layer.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from repro.errors import ExtractionError
from repro.nlp.stopwords import STOPWORDS
from repro.nlp.tokenize import bigrams, words


@dataclass(frozen=True)
class WordCloud:
    """Frequency tables for a collection of texts."""

    unigram_counts: Dict[str, int]
    bigram_counts: Dict[str, int]
    n_texts: int

    def top_unigrams(self, k: int = 3) -> List[Tuple[str, int]]:
        """The k most frequent unigrams — the paper's news-search keys."""
        if k < 1:
            raise ExtractionError("k must be >= 1")
        return Counter(self.unigram_counts).most_common(k)

    def rank_of(self, term: str) -> int:
        """1-based frequency rank of a unigram; raises if absent.

        Used to check claims like "the third most common word ... is
        outage".
        """
        ordered = Counter(self.unigram_counts).most_common()
        for rank, (word, _) in enumerate(ordered, start=1):
            if word == term.lower():
                return rank
        raise ExtractionError(f"term {term!r} not in cloud")

    def contains(self, term: str) -> bool:
        return term.lower() in self.unigram_counts


def build_wordcloud(
    texts: Iterable[str],
    min_word_length: int = 3,
    extra_stopwords: Iterable[str] = (),
) -> WordCloud:
    """Count stopword-filtered unigrams and bigrams across texts."""
    stop = set(STOPWORDS)
    stop.update(w.lower() for w in extra_stopwords)
    unigram_counts: Counter = Counter()
    bigram_counts: Counter = Counter()
    n_texts = 0
    for text in texts:
        n_texts += 1
        tokens = [
            w for w in words(text)
            if len(w) >= min_word_length and w not in stop
        ]
        unigram_counts.update(tokens)
        bigram_counts.update(bigrams(tokens))
    return WordCloud(
        unigram_counts=dict(unigram_counts),
        bigram_counts=dict(bigram_counts),
        n_texts=n_texts,
    )

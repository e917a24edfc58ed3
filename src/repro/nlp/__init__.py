"""Offline text-analysis stack (the paper's Azure/NLTK substitute).

§4 of the paper runs Reddit posts through Azure Cognitive Services for
sentiment, NLTK for word clouds, a hand-built keyword dictionary for
outage detection, and web search for news annotation.  None of those are
available offline, so this package implements functional equivalents:

* :mod:`repro.nlp.tokenize` / :mod:`repro.nlp.stopwords` — text basics.
* :mod:`repro.nlp.sentiment` — a lexicon + valence-shifter scorer that
  emits the same contract as the cloud service: (positive, negative,
  neutral) scores summing to 1, with ``>= 0.7`` counting as *strong*.
* :mod:`repro.nlp.wordcloud` — term frequencies and top-k unigrams.
* :mod:`repro.nlp.keywords` — the outage dictionary and matcher (Fig. 6).
* :mod:`repro.nlp.trends` — the popularity-weighted emerging-topic miner
  that detected "roaming" two weeks before the CEO announcement.
* :mod:`repro.nlp.news` — a searchable simulated news index used to
  annotate sentiment peaks (Fig. 5a).
"""

from repro.nlp.keywords import OUTAGE_KEYWORDS, KeywordDictionary
from repro.nlp.news import NewsArticle, NewsIndex
from repro.nlp.sentiment import SentimentAnalyzer, SentimentScores
from repro.nlp.stopwords import STOPWORDS
from repro.nlp.tokenize import tokenize
from repro.nlp.trends import EmergingTopic, TrendMiner
from repro.nlp.wordcloud import WordCloud, build_wordcloud

__all__ = [
    "EmergingTopic",
    "KeywordDictionary",
    "NewsArticle",
    "NewsIndex",
    "OUTAGE_KEYWORDS",
    "STOPWORDS",
    "SentimentAnalyzer",
    "SentimentScores",
    "TrendMiner",
    "WordCloud",
    "build_wordcloud",
    "tokenize",
]

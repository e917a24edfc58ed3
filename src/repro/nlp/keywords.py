"""Keyword dictionaries and matching — the Fig. 6 outage detector.

§4.1: *"we first built a dictionary (a manual tedious process at the
moment, scanning such posts and online articles on network outages) with
keywords related to outages and filtered the Reddit threads containing
them."*  ``OUTAGE_KEYWORDS`` is that dictionary; the matcher counts
keyword occurrences per text, supporting both unigrams and phrases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Tuple

from repro.errors import ExtractionError
from repro.nlp.tokenize import bigrams, words

OUTAGE_TERMS: Tuple[str, ...] = (
    "outage", "outages", "down", "offline", "dead",
    "disconnect", "disconnects", "disconnected", "disconnecting",
    "disconnection", "disconnections", "dropouts", "unreachable",
    "interruption", "interruptions", "blackout",
    "no service", "no signal", "no internet", "lost connection",
    "connection lost", "went down", "is down", "service down",
    "total outage", "global outage", "completely down", "kept dropping",
)


@dataclass(frozen=True)
class KeywordDictionary:
    """A set of unigram and phrase keywords with a matcher.

    Matching is case-insensitive and token-based: unigrams match single
    tokens, phrases match adjacent token pairs, so "breakdown" does not
    fire the "down" keyword.
    """

    name: str
    terms: FrozenSet[str]

    def __post_init__(self) -> None:
        if not self.terms:
            raise ExtractionError(f"dictionary {self.name!r} has no terms")
        for term in self.terms:
            n_tokens = len(term.split())
            if n_tokens not in (1, 2):
                raise ExtractionError(
                    f"dictionary {self.name!r}: term {term!r} must be a "
                    f"unigram or bigram"
                )

    @classmethod
    def from_terms(cls, name: str, terms: Iterable[str]) -> "KeywordDictionary":
        return cls(name=name, terms=frozenset(t.lower() for t in terms))

    @property
    def unigrams(self) -> FrozenSet[str]:
        return frozenset(t for t in self.terms if " " not in t)

    @property
    def phrases(self) -> FrozenSet[str]:
        return frozenset(t for t in self.terms if " " in t)

    def count_matches(self, text: str) -> int:
        """Total keyword occurrences in the text.

        Phrase matches consume their tokens: "total outage" counts once
        as a phrase, and "outage" is not additionally counted for the
        same position (otherwise every phrase hit would double-count).
        """
        tokens = words(text)
        consumed = [False] * len(tokens)
        count = 0
        phrase_set = self.phrases
        for i, pair in enumerate(bigrams(tokens)):
            if pair in phrase_set:
                count += 1
                consumed[i] = consumed[i + 1] = True
        unigram_set = self.unigrams
        for i, token in enumerate(tokens):
            if not consumed[i] and token in unigram_set:
                count += 1
        return count


OUTAGE_KEYWORDS = KeywordDictionary.from_terms("outage", OUTAGE_TERMS)

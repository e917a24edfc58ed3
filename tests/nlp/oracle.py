"""Oracles for the tokenizer and the sentiment scorer.

:func:`tokenize` and :func:`score` are the bodies
:func:`repro.nlp.tokenize.tokenize` and
:meth:`repro.nlp.sentiment.SentimentAnalyzer.score` ran before the
kernel was trimmed: both substitutions on every text, one ``lower()``
per token, a ``range`` loop and an ``any()`` generator per window and a
``max`` clamp on the boost.  The arithmetic of the trimmed kernel is
the same expressions in the same order, so tests pin its scores ``==``
against these.

They live here only so tests can pin the code in ``src/`` against
them; nothing in ``src/`` calls them.
"""

from __future__ import annotations

from typing import List

from repro.nlp.lexicon import INTENSIFIERS, NEGATORS, VALENCES
from repro.nlp.sentiment import (
    _CAPS_BOOST,
    _DOMINANCE_GAIN,
    _EXCLAIM_BOOST,
    _NEGATION_DAMP,
    NEUTRAL_WEIGHT,
    SentimentScores,
)
from repro.nlp.tokenize import _MENTION_RE, _TOKEN_RE, _URL_RE

_NEGATION_WINDOW = 2
_INTENSIFIER_WINDOW = 2


def tokenize(text: str) -> List[str]:
    if not isinstance(text, str):
        raise TypeError(f"expected str, got {type(text).__name__}")
    cleaned = _URL_RE.sub(" ", text)
    cleaned = _MENTION_RE.sub(" ", cleaned)
    return _TOKEN_RE.findall(cleaned)


def score(text: str) -> SentimentScores:
    tokens = tokenize(text)
    if not tokens:
        return SentimentScores(positive=0.0, negative=0.0, neutral=1.0)

    lowered = [t.lower() for t in tokens]

    pos_mass = 0.0
    neg_mass = 0.0
    word_count = 0
    n_hits = 0
    for i, token in enumerate(tokens):
        is_exclaim = token[0] in "!?"
        if not is_exclaim:
            word_count += 1
        valence = VALENCES.get(lowered[i])
        if valence is None:
            continue
        n_hits += 1

        boost = 1.0
        for j in range(max(0, i - _INTENSIFIER_WINDOW), i):
            boost += INTENSIFIERS.get(lowered[j], 0.0)
        boost = max(0.3, boost)

        negated = any(
            lowered[j] in NEGATORS
            for j in range(max(0, i - _NEGATION_WINDOW), i)
        )

        if token.isupper() and len(token) > 2:
            boost *= _CAPS_BOOST
        if i + 1 < len(tokens) and tokens[i + 1][0] == "!":
            boost *= 1.0 + _EXCLAIM_BOOST * min(3, len(tokens[i + 1]))

        signed = valence * boost
        if negated:
            signed = -signed * _NEGATION_DAMP
        if signed >= 0:
            pos_mass += signed
        else:
            neg_mass += -signed

    if pos_mass + neg_mass > 0 and n_hits >= 2:
        dominance = abs(pos_mass - neg_mass) / (pos_mass + neg_mass)
        amplifier = 1.0 + _DOMINANCE_GAIN * dominance * min(n_hits, 6) / 3.0
        if pos_mass >= neg_mass:
            pos_mass *= amplifier
        else:
            neg_mass *= amplifier

    neutral_mass = NEUTRAL_WEIGHT * max(1.0, (word_count - n_hits) ** 0.5)
    total = pos_mass + neg_mass + neutral_mass
    return SentimentScores(
        positive=pos_mass / total,
        negative=neg_mass / total,
        neutral=neutral_mass / total,
    )

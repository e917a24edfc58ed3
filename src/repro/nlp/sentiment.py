"""Lexicon-based sentiment scoring with valence shifters.

Output contract mirrors the cloud service the paper used: each text gets
``(positive, negative, neutral)`` scores that sum to 1, and the paper's
*strong* threshold (``>= 0.7``) applies to the positive/negative scores.

The scorer walks the token stream and, for every lexicon hit, applies:

* **negation** — a negator within the three preceding tokens flips and
  damps the valence ("not great" ≈ mildly negative);
* **intensification** — boosters within the two preceding tokens scale
  it ("extremely slow" < "slow");
* **emphasis** — ALL-CAPS lexicon words and trailing exclamation bursts
  amplify.

Scores are then normalised against the token count so that a single mild
word in a long neutral post stays neutral, while a short "this is
garbage!!" scores strongly negative.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, List

from repro.errors import ExtractionError
from repro.nlp.lexicon import INTENSIFIERS, NEGATORS, VALENCES
from repro.nlp.tokenize import tokenize

STRONG_THRESHOLD = 0.7

_NEGATION_WINDOW = 2
_INTENSIFIER_WINDOW = 2
_NEGATION_DAMP = 0.65  # "not great" is weaker than "bad"
_CAPS_BOOST = 1.35
_EXCLAIM_BOOST = 0.18  # per '!' up to 3
_DOMINANCE_GAIN = 0.8  # amplification of an unambiguous polarity


@dataclass(frozen=True)
class SentimentScores:
    """(positive, negative, neutral) scores summing to 1."""

    positive: float
    negative: float
    neutral: float

    def __post_init__(self) -> None:
        total = self.positive + self.negative + self.neutral
        if not 0.999 <= total <= 1.001:
            raise ExtractionError(f"scores must sum to 1, got {total}")
        for name in ("positive", "negative", "neutral"):
            value = getattr(self, name)
            if not 0 <= value <= 1:
                raise ExtractionError(f"{name} must be in [0, 1], got {value}")

    @property
    def is_strong_positive(self) -> bool:
        return self.positive >= STRONG_THRESHOLD

    @property
    def is_strong_negative(self) -> bool:
        return self.negative >= STRONG_THRESHOLD

    @property
    def polarity(self) -> float:
        """Signed single-number summary in [-1, 1]."""
        return self.positive - self.negative


class SentimentAnalyzer:
    """Reusable scorer; scoring is stateless, the memo is bounded state."""

    def __init__(
        self, neutral_weight: float = 0.5, memo_cap: int = 4096
    ) -> None:
        """``neutral_weight`` scales how much plain text dilutes valence.

        Higher values make the analyzer more conservative (more texts
        classified neutral).  ``memo_cap`` bounds the batch-scoring
        memo (distinct texts retained, LRU eviction): an adversarial
        flood of unique texts — exactly what a spam brigade produces —
        can no longer grow the memo without bound.  The cap changes
        memory behaviour only; scores are byte-identical at any cap.
        """
        if neutral_weight <= 0:
            raise ExtractionError("neutral_weight must be positive")
        if memo_cap < 1:
            raise ExtractionError("memo_cap must be >= 1")
        self._neutral_weight = neutral_weight
        self._memo_cap = int(memo_cap)
        self._memo: "OrderedDict[str, SentimentScores]" = OrderedDict()

    @property
    def memo_cap(self) -> int:
        return self._memo_cap

    @property
    def memo_size(self) -> int:
        """Distinct texts currently memoised (always <= ``memo_cap``)."""
        return len(self._memo)

    def score(self, text: str) -> SentimentScores:
        """Score one piece of text."""
        tokens = tokenize(text)
        if not tokens:
            return SentimentScores(positive=0.0, negative=0.0, neutral=1.0)

        # Single normalisation pass: the window scans below index into
        # this list instead of re-lowercasing neighbours per lexicon hit.
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

            # Intensifiers immediately before the hit.
            boost = 1.0
            for j in range(max(0, i - _INTENSIFIER_WINDOW), i):
                boost += INTENSIFIERS.get(lowered[j], 0.0)
            boost = max(0.3, boost)

            # Negation within the window flips and damps.
            negated = any(
                lowered[j] in NEGATORS
                for j in range(max(0, i - _NEGATION_WINDOW), i)
            )

            # Emphasis: ALL-CAPS hit, trailing exclamations.
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

        # A text where one polarity clearly dominates across several hits
        # reads unambiguously no matter how long it is — amplify the
        # dominant mass so long rants still register as strong.
        if pos_mass + neg_mass > 0 and n_hits >= 2:
            dominance = abs(pos_mass - neg_mass) / (pos_mass + neg_mass)
            amplifier = 1.0 + _DOMINANCE_GAIN * dominance * min(n_hits, 6) / 3.0
            if pos_mass >= neg_mass:
                pos_mass *= amplifier
            else:
                neg_mass *= amplifier

        # Dilute by text length: valence mass competes with neutral mass.
        neutral_mass = self._neutral_weight * max(
            1.0, (word_count - n_hits) ** 0.5
        )
        total = pos_mass + neg_mass + neutral_mass
        return SentimentScores(
            positive=pos_mass / total,
            negative=neg_mass / total,
            neutral=neutral_mass / total,
        )

    def score_many(self, texts: Iterable[str]) -> List[SentimentScores]:
        """Score a batch of texts — the bulk entry point.

        Scoring is deterministic, so identical texts get identical
        scores; the batch path memoises on the text and scores each
        distinct string once.  Generated corpora are heavily templated
        (most posts share a text with an earlier one), which makes this
        much faster than per-text :meth:`score` calls while returning
        exactly the same scores.

        The memo lives on the analyzer (so repeated batches share it)
        and is LRU-bounded at ``memo_cap`` distinct texts — a cache
        miss past the cap evicts the least recently used entry and
        rescores on the next occurrence, changing timing, never values.
        """
        memo = self._memo
        cap = self._memo_cap
        score = self.score
        out: List[SentimentScores] = []
        for text in texts:
            scores = memo.get(text)
            if scores is None:
                scores = score(text)
                memo[text] = scores
                if len(memo) > cap:
                    memo.popitem(last=False)
            else:
                memo.move_to_end(text)
            out.append(scores)
        return out

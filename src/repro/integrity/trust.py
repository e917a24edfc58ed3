"""Per-contributor trust scoring: who should an aggregate believe?

Three cheap, deterministic tests — the ones the crowdsourced-QoE
literature puts first — scored per author (social corpus) or per rater
(call dataset):

* **duplicate-text fingerprinting** — an author whose posts collapse to
  a handful of normalised-text SHA-256 fingerprints is running
  templates;
* **burst anomaly** — an author whose single-day peak volume is far
  above anything an organic poster produces is flooding;
* **template rings** — one fingerprint posted repeatedly by several
  distinct authors is a coordinated bot ring;
* **rating-distribution test** — a rater with many ratings that are all
  the same extreme value (1 or 5) is a shill campaign, not a user.

Each contributor gets a :class:`TrustScore` whose ``trust`` weight
feeds the robust aggregates (:mod:`repro.integrity.estimators`):
suspect contributors are down-weighted to zero, everyone else keeps
weight 1.  The scoring is a pure function of the input records — no
clock, no RNG — so clean and contaminated runs stay byte-reproducible.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, Tuple

import numpy as np

from repro.core.signals import SignalSeries
from repro.core.stats import unique_counts
from repro.perf.columnar import corpus_columns, participant_columns

__all__ = [
    "SignalUnitScores",
    "TrustScore",
    "contamination_estimate",
    "post_weights",
    "rated_weights",
    "score_authors",
    "score_raters",
    "score_signal_units",
    "signal_unit_scores",
    "text_fingerprint",
]

#: Flag thresholds (documented in docs/integrity.md).
DUP_MIN_ITEMS = 5       # duplicate-text test needs this many posts
DUP_RATIO = 0.6         # >= this fraction of posts are repeats
BURST_DAY_POSTS = 8     # single-day peak at/above this is a flood
RING_MIN_AUTHORS = 3    # a fingerprint shared by this many authors ...
RING_MIN_REPEATS = 2    # ... each posting it this often, is a ring ...
RING_MEAN_REPEATS = 3.0  # ... IF its posts concentrate on them (see below)
FRAUD_MIN_RATINGS = 4   # rating test needs this many ratings
FRAUD_CONSTANT_FRAC = 0.9  # >= this fraction identical-extreme = shill


@dataclass(frozen=True)
class TrustScore:
    """One contributor's trust verdict.

    ``trust`` is the aggregation weight in [0, 1]: 1 = believed, 0 =
    excluded.  ``flags`` names every test the contributor tripped
    (``duplicate_text`` / ``burst`` / ``template_ring`` /
    ``rating_fraud``); the weight is 0 when the combination is
    conclusive (a ring, or duplicates *and* a burst, or rating fraud)
    and 0.5 when a single soft signal fired.
    """

    unit: str
    n_items: int
    duplicate_ratio: float
    burst_peak: int
    rating_bias: float
    flags: Tuple[str, ...]
    trust: float

    @property
    def suspect(self) -> bool:
        return self.trust < 1.0


def text_fingerprint(text: str) -> str:
    """SHA-256 of the whitespace/case-normalised text."""
    normalised = " ".join(text.lower().split())
    return hashlib.sha256(normalised.encode("utf-8")).hexdigest()


def _author_trust(
    n_items: int,
    duplicate_ratio: float,
    burst_peak: int,
    in_ring: bool,
) -> Tuple[Tuple[str, ...], float]:
    flags = []
    if n_items >= DUP_MIN_ITEMS and duplicate_ratio >= DUP_RATIO:
        flags.append("duplicate_text")
    if burst_peak >= BURST_DAY_POSTS:
        flags.append("burst")
    if in_ring:
        flags.append("template_ring")
    if "template_ring" in flags or (
        "duplicate_text" in flags and "burst" in flags
    ):
        trust = 0.0
    elif flags:
        trust = 0.5
    else:
        trust = 1.0
    return tuple(flags), trust


def score_authors(posts: Iterable) -> Dict[str, TrustScore]:
    """Score every author of an iterable of posts (corpus accepted).

    Returns an author-sorted dict, so iteration order — and therefore
    any serialised form — is deterministic.
    """
    per_author: Dict[str, list] = {}
    fp_authors: Dict[str, Dict[str, int]] = {}
    for post in posts:
        fp = text_fingerprint(post.full_text)
        per_author.setdefault(post.author, []).append((post.date, fp))
        counts = fp_authors.setdefault(fp, {})
        counts[post.author] = counts.get(post.author, 0) + 1
    # A ring fingerprint must be *concentrated*, not merely shared: a
    # viral template is reposted by hundreds of organic authors a
    # couple of times each (mean repeats ~1), while a bot ring is a
    # handful of authors hammering the same text (mean repeats >> 1).
    # Without the mean-repeats gate, long corpus spans flag every
    # popular template as a ring.
    ring_fps = {
        fp for fp, counts in fp_authors.items()
        if sum(
            1 for n in counts.values() if n >= RING_MIN_REPEATS
        ) >= RING_MIN_AUTHORS
        and sum(counts.values()) / len(counts) >= RING_MEAN_REPEATS
    }
    scores: Dict[str, TrustScore] = {}
    for author in sorted(per_author):
        items = per_author[author]
        fps = [fp for _, fp in items]
        day_counts: Dict[object, int] = {}
        for day, _ in items:
            day_counts[day] = day_counts.get(day, 0) + 1
        duplicate_ratio = 1.0 - len(set(fps)) / len(fps)
        burst_peak = max(day_counts.values())
        in_ring = any(fp in ring_fps for fp in fps)
        flags, trust = _author_trust(
            len(items), duplicate_ratio, burst_peak, in_ring
        )
        scores[author] = TrustScore(
            unit=author,
            n_items=len(items),
            duplicate_ratio=duplicate_ratio,
            burst_peak=burst_peak,
            rating_bias=0.0,
            flags=flags,
            trust=trust,
        )
    return scores


def score_raters(dataset) -> Dict[str, TrustScore]:
    """Score every rater (user with explicit feedback) of a call dataset.

    The distribution test: a user with :data:`FRAUD_MIN_RATINGS` or
    more ratings of which at least :data:`FRAUD_CONSTANT_FRAC` are the
    same extreme value (1 or 5) is a shill campaign — organic raters at
    the paper's sparse sampling almost never reach that volume, let
    alone that constancy.
    """
    per_user: Dict[str, list] = {}
    for p in dataset.participants():
        if p.rating is not None:
            per_user.setdefault(p.user_id, []).append(int(p.rating))
    scores: Dict[str, TrustScore] = {}
    for user in sorted(per_user):
        ratings = per_user[user]
        n = len(ratings)
        bias = max(
            sum(1 for r in ratings if r == extreme) / n
            for extreme in (1, 5)
        )
        flags: Tuple[str, ...] = ()
        trust = 1.0
        if n >= FRAUD_MIN_RATINGS and bias >= FRAUD_CONSTANT_FRAC:
            flags = ("rating_fraud",)
            trust = 0.0
        scores[user] = TrustScore(
            unit=user,
            n_items=n,
            duplicate_ratio=0.0,
            burst_peak=0,
            rating_bias=bias,
            flags=flags,
            trust=trust,
        )
    return scores


@dataclass(frozen=True)
class SignalUnitScores:
    """:func:`score_signal_units` as arrays, one entry per unit.

    ``codes`` holds each unit's code in the scored series' ``user``
    vocabulary, ascending; ``unit_of_row`` maps each row of the series
    to its unit's index, -1 for rows without a ``user`` attr
    (unscored, weight 1).
    """

    codes: np.ndarray
    unit_of_row: np.ndarray
    n_items: np.ndarray
    burst_peak: np.ndarray
    rating_bias: np.ndarray
    rating_fraud: np.ndarray
    burst: np.ndarray
    trust: np.ndarray


def signal_unit_scores(series: SignalSeries) -> SignalUnitScores:
    """Grouped counts by user code behind :func:`score_signal_units`."""
    codes, vocab = series._attr("user")
    present = vocab.present(codes)
    k = len(present)
    lut = np.full(len(vocab.words) + 1, -1, dtype=np.int64)
    lut[present + 1] = np.arange(k)
    unit_of_row = lut[codes + 1]
    scored = unit_of_row >= 0
    unit = unit_of_row[scored]

    day = series._col("day")[scored]
    n_items = np.bincount(unit, minlength=k)
    burst_peak = np.zeros(k, dtype=np.int64)
    if len(day):
        span = int(day.max() - day.min()) + 1
        cells, per_cell = unique_counts(unit * span + (day - day.min()))
        np.maximum.at(burst_peak, cells // span, per_cell)

    metric, metric_vocab = series._field("metric")
    rated = metric[scored] == metric_vocab.code("rating")
    rating = np.rint(series._col("value")[scored][rated])
    rater = unit[rated]
    n_ratings = np.bincount(rater, minlength=k)
    extreme = np.maximum(
        np.bincount(rater[rating == 1], minlength=k),
        np.bincount(rater[rating == 5], minlength=k),
    )
    enough = n_ratings >= FRAUD_MIN_RATINGS
    rating_bias = np.where(enough, extreme / np.maximum(n_ratings, 1), 0.0)
    rating_fraud = enough & (rating_bias >= FRAUD_CONSTANT_FRAC)
    burst = burst_peak >= BURST_DAY_POSTS
    trust = np.where(rating_fraud, 0.0, np.where(burst, 0.5, 1.0))
    return SignalUnitScores(
        codes=present,
        unit_of_row=unit_of_row,
        n_items=n_items,
        burst_peak=burst_peak,
        rating_bias=rating_bias,
        rating_fraud=rating_fraud,
        burst=burst,
        trust=trust,
    )


def score_signal_units(signals: Iterable) -> Dict[str, TrustScore]:
    """Trust-score the contributors behind explicit USaaS signals.

    Groups by each signal's scrubbed ``user`` attribute (signals
    without one are not scored and keep weight 1).  Rating signals run
    the distribution test; per-day signal counts run the burst test.
    Returns a unit-sorted dict, like the other scorers.  ``signals`` is
    a ``SignalSeries`` or any iterable of ``Signal`` objects.
    """
    if not isinstance(signals, SignalSeries):
        signals = SignalSeries(signals)
    t = signal_unit_scores(signals)
    words = signals._attr("user")[1].words
    scores = {
        unit: TrustScore(
            unit=unit,
            n_items=n_items,
            duplicate_ratio=0.0,
            burst_peak=burst_peak,
            rating_bias=bias,
            flags=tuple(
                flag for flag, on in (("rating_fraud", fraud), ("burst", burst))
                if on
            ),
            trust=trust,
        )
        for unit, n_items, burst_peak, bias, fraud, burst, trust in zip(
            [words[c] for c in t.codes.tolist()], t.n_items.tolist(),
            t.burst_peak.tolist(), t.rating_bias.tolist(),
            t.rating_fraud.tolist(), t.burst.tolist(), t.trust.tolist(),
        )
    }
    return {unit: scores[unit] for unit in sorted(scores)}


def contamination_estimate(scores: Dict[str, TrustScore]) -> float:
    """Item-weighted fraction of fully distrusted contributions."""
    total = sum(s.n_items for s in scores.values())
    if total == 0:
        return 0.0
    flagged = sum(s.n_items for s in scores.values() if s.trust == 0.0)
    return flagged / total


def _weights_for(units, scores: Dict[str, TrustScore]) -> np.ndarray:
    return np.fromiter(
        (
            scores[u].trust if u in scores else 1.0
            for u in units
        ),
        dtype=float,
        count=len(units),
    )


def post_weights(corpus, scores: Dict[str, TrustScore]) -> np.ndarray:
    """Per-post trust weights, in corpus (created-time) order.

    ``corpus`` is anything :func:`~repro.perf.columnar.corpus_columns`
    accepts; the weights are read off its author column.
    """
    return _weights_for(corpus_columns(corpus).author, scores)


def rated_weights(dataset, scores: Dict[str, TrustScore]) -> np.ndarray:
    """Per-rated-session trust weights, in dataset session order.

    ``dataset`` is anything :func:`~repro.perf.columnar.participant_columns`
    accepts; the rated sessions are the finite rows of its ``rating``
    column.
    """
    cols = participant_columns(dataset)
    rated = np.flatnonzero(np.isfinite(cols.rating))
    return _weights_for([cols.user_id[i] for i in rated.tolist()], scores)

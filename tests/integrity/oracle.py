"""Record-at-a-time oracles for the integrity aggregates and weights.

These are the per-record paths :func:`~repro.integrity.robust_mos`,
:func:`~repro.integrity.robust_polarity`,
:func:`~repro.integrity.post_weights` and
:func:`~repro.integrity.rated_weights` ran before they moved onto the
columnar blocks.  They live here only so tests can pin the columnar
results ``==`` against them; nothing in ``src/`` calls them.  Each one
walks ``dataset.participants()`` or ``corpus.posts()``, so no columnar
code runs inside an oracle.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.integrity.estimators import _apply_weights, _reduce
from repro.integrity.trust import TrustScore, _weights_for
from repro.nlp.sentiment import SentimentAnalyzer


def robust_mos_records(
    dataset,
    statistic: str = "trimmed_mean",
    weights: Optional[Sequence[float]] = None,
) -> float:
    ratings = np.array(
        [float(p.rating) for p in dataset.participants()
         if p.rating is not None],
        dtype=float,
    )
    return _reduce(_apply_weights(ratings, weights), statistic)


def robust_polarity_records(
    corpus,
    analyzer=None,
    statistic: str = "trimmed_mean",
    weights: Optional[Sequence[float]] = None,
) -> float:
    analyzer = analyzer or SentimentAnalyzer()
    posts = corpus.posts()
    scores = analyzer.score_many(p.full_text for p in posts)
    polarity = np.fromiter(
        (s.polarity for s in scores), dtype=float, count=len(scores)
    )
    return _reduce(_apply_weights(polarity, weights), statistic)


def post_weights_records(corpus, scores: Dict[str, TrustScore]) -> np.ndarray:
    return _weights_for([p.author for p in corpus.posts()], scores)


def rated_weights_records(dataset, scores: Dict[str, TrustScore]) -> np.ndarray:
    return _weights_for(
        [p.user_id for p in dataset.participants() if p.rating is not None],
        scores,
    )

"""Social-media bias correction (§6 "The social network bias").

Social feedback over-represents three things: loud users (many posts),
viral threads (huge popularity weights), and extreme feelings (delighted
or furious users post; the satisfied middle doesn't).  USaaS can't fix
the last one without ground truth, but it can stop the first two from
multiplying it:

* **author de-duplication** — at most ``per_author_daily_cap`` signals
  per (hashed) author per day count;
* **weight winsorisation** — popularity weights are capped at the
  ``weight_cap_quantile`` of the weight distribution, so one viral
  thread can't dominate a month.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.signals import SignalSeries
from repro.errors import ConfigError


@dataclass(frozen=True)
class BiasCorrector:
    """Debiasing parameters.

    Attributes:
        per_author_daily_cap: max signals per author per day (0 = off).
        weight_cap_quantile: winsorisation quantile for weights in
            (0, 1]; 1.0 disables capping.
    """

    per_author_daily_cap: int = 3
    weight_cap_quantile: float = 0.95

    def __post_init__(self) -> None:
        if self.per_author_daily_cap < 0:
            raise ConfigError("per_author_daily_cap must be >= 0")
        if not 0 < self.weight_cap_quantile <= 1:
            raise ConfigError("weight_cap_quantile must be in (0, 1]")

    def apply(self, series: SignalSeries) -> SignalSeries:
        """Return the debiased series (original untouched).

        A view of the kept rows: each (author, day) keeps its first
        ``per_author_daily_cap`` rows by a stable rank, and weights are
        capped with ``np.minimum``; ``Signal`` objects are rebuilt only
        when the result is iterated.
        """
        if len(series) == 0:
            return SignalSeries()
        kept = np.arange(len(series))

        if self.per_author_daily_cap > 0:
            # Absent, "" and "?" users are one author.
            author, vocab = series._attr("user")
            author = np.where(
                np.isin(author, (vocab.code(""), vocab.code("?"))), -1, author
            )
            day = series._col("day")
            n = len(day)
            key = (author + 1) * (int(day.max() - day.min()) + 1) + (day - day.min())
            # Sorting key * n + row is a stable sort by key: rows of one
            # (author, day) stay in row order, so rank counts earlier rows.
            packed = np.sort(key * n + np.arange(n))
            ordered, order = packed // n, packed % n
            first = np.ones(n, dtype=bool)
            first[1:] = ordered[1:] != ordered[:-1]
            rank = np.empty(n, dtype=np.int64)
            rank[order] = np.arange(n) - np.flatnonzero(first)[np.cumsum(first) - 1]
            kept = np.flatnonzero(rank < self.per_author_daily_cap)

        weight = None
        if self.weight_cap_quantile < 1 and len(kept):
            weight = series._col("weight")[kept]
            cap = float(np.quantile(weight, self.weight_cap_quantile))
            cap = max(cap, 1.0)
            weight = np.minimum(weight, cap)
        return series._take(kept, weight)

"""Statistical primitives shared by the engagement and social pipelines.

These are deliberately small, dependency-light implementations (numpy only)
of the operations the paper performs: binning sessions by a network metric
and reporting a per-bin statistic (Fig. 1–4), rank and linear correlation
(Fig. 4, §5), and bootstrap confidence intervals that decide whether an
observed shape is stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.errors import AnalysisError


@dataclass(frozen=True)
class BinnedCurve:
    """A per-bin summary of ``values`` grouped by ``key``.

    Attributes:
        edges: bin edges, length ``n_bins + 1``.
        centers: bin mid-points, length ``n_bins``.
        stat: the per-bin statistic (NaN for empty bins).
        counts: number of samples per bin.
    """

    edges: np.ndarray
    centers: np.ndarray
    stat: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        if len(self.edges) != len(self.centers) + 1:
            raise AnalysisError("edges must have exactly one more entry than centers")
        if len(self.centers) != len(self.stat) or len(self.stat) != len(self.counts):
            raise AnalysisError("centers, stat and counts must have equal length")

    @property
    def n_bins(self) -> int:
        return len(self.centers)

    def nonempty(self) -> "BinnedCurve":
        """Return a copy restricted to bins that actually contain samples."""
        mask = self.counts > 0
        if mask.all():
            return self
        # Edges cannot be sliced consistently for arbitrary masks; keep
        # per-bin geometry by rebuilding degenerate edges around centers.
        centers = self.centers[mask]
        widths = np.diff(self.edges)[mask]
        edges = np.concatenate([centers - widths / 2, [centers[-1] + widths[-1] / 2]]) \
            if len(centers) else np.array([0.0])
        return BinnedCurve(
            edges=edges,
            centers=centers,
            stat=self.stat[mask],
            counts=self.counts[mask],
        )

    def as_rows(self) -> list:
        """Rows of ``(center, stat, count)`` — handy for table printing."""
        return [
            (float(c), float(s), int(n))
            for c, s, n in zip(self.centers, self.stat, self.counts)
        ]


@dataclass(frozen=True)
class BootstrapResult:
    """Point estimate with a bootstrap percentile confidence interval."""

    estimate: float
    low: float
    high: float
    n_resamples: int
    confidence: float = field(default=0.95)

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high

    @property
    def width(self) -> float:
        return self.high - self.low


def _as_1d(values: Sequence[float], name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise AnalysisError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


def trimmed_mean(values: Sequence[float], trim: float = 0.1) -> float:
    """Mean after discarding the ``trim`` fraction from *each* tail.

    The classic robust location estimate: sort, drop ``floor(trim * n)``
    samples from both ends, average the rest.  Breakdown point =
    ``trim`` — any contamination fraction strictly below ``trim`` can
    move the estimate only by a bounded amount, because every
    contaminated sample lands in a discarded tail (adversaries gain
    nothing by hiding in the middle: displacing a clean sample into the
    kept set moves the mean by at most one in-range value).
    """
    if not 0.0 <= trim < 0.5:
        raise AnalysisError(f"trim must be in [0, 0.5), got {trim}")
    arr = _as_1d(values, "values")
    if len(arr) == 0:
        raise AnalysisError("cannot take a trimmed mean of an empty sequence")
    g = int(trim * len(arr))
    if 2 * g >= len(arr):
        g = (len(arr) - 1) // 2
    ordered = np.sort(arr, kind="stable")
    return float(np.mean(ordered[g:len(arr) - g]))


def winsorized_mean(values: Sequence[float], trim: float = 0.1) -> float:
    """Mean after clamping each tail to its ``trim``-quantile neighbour.

    Like :func:`trimmed_mean` but the ``floor(trim * n)`` most extreme
    samples per side are *replaced* by the nearest kept order statistic
    instead of dropped, so the sample size (and hence the variance
    behaviour) is preserved.  Breakdown point = ``trim``, same argument
    as the trimmed mean: outliers beyond the clamp rank cannot move the
    clamp values themselves.
    """
    if not 0.0 <= trim < 0.5:
        raise AnalysisError(f"trim must be in [0, 0.5), got {trim}")
    arr = _as_1d(values, "values")
    if len(arr) == 0:
        raise AnalysisError(
            "cannot take a winsorized mean of an empty sequence"
        )
    g = int(trim * len(arr))
    if 2 * g >= len(arr):
        g = (len(arr) - 1) // 2
    ordered = np.sort(arr, kind="stable")
    if g > 0:
        ordered[:g] = ordered[g]
        ordered[len(arr) - g:] = ordered[len(arr) - g - 1]
    return float(np.mean(ordered))


def median_of_means(values: Sequence[float], n_blocks: int = 5) -> float:
    """Median of the means of ``n_blocks`` contiguous blocks.

    The samples are split (in their given order, deterministically) into
    ``n_blocks`` near-equal contiguous blocks; each block is averaged
    and the median of the block means is returned.  Breakdown point:
    the estimate survives as long as fewer than ``ceil(n_blocks / 2)``
    blocks are contaminated — under adversarial placement one bad
    sample can poison one block, so the worst-case tolerated fraction
    is ``(ceil(n_blocks / 2) - 1) / n`` of the samples; under random
    ε-contamination most blocks stay majority-clean for small ε, which
    is the regime the integrity soak exercises.
    """
    if n_blocks < 1:
        raise AnalysisError(f"n_blocks must be >= 1, got {n_blocks}")
    arr = _as_1d(values, "values")
    if len(arr) == 0:
        raise AnalysisError(
            "cannot take a median-of-means of an empty sequence"
        )
    k = min(n_blocks, len(arr))
    block_means = [float(np.mean(block)) for block in np.array_split(arr, k)]
    return float(np.median(block_means))


def _trimmed_mean_default(a) -> float:
    return trimmed_mean(a)


def _winsorized_mean_default(a) -> float:
    return winsorized_mean(a)


def _median_of_means_default(a) -> float:
    return median_of_means(a)


_REDUCERS: dict = {
    "mean": np.mean,
    "median": np.median,
    "p95": lambda a: np.percentile(a, 95),
    "count": len,
    # Robust location estimates (repro.integrity): registered here so
    # every consumer of BinGrouping.reduce / bin_statistic — record and
    # columnar curve paths alike — accepts them by name, with the same
    # bit-identical member ordering as the naive reducers.
    "trimmed_mean": _trimmed_mean_default,
    "winsorized_mean": _winsorized_mean_default,
    "median_of_means": _median_of_means_default,
}


def resolve_statistic(name: str) -> Callable:
    """The reducer behind a statistic name (shared with BinGrouping).

    Lets :mod:`repro.integrity` apply the exact same callable to a flat
    value column that the curve paths apply per bin, so a robust MOS or
    polarity aggregate matches its binned counterpart bit for bit.
    """
    if name not in _REDUCERS:
        raise AnalysisError(f"unknown statistic {name!r}")
    return _REDUCERS[name]


@dataclass(frozen=True)
class BinGrouping:
    """The key-side half of :func:`bin_statistic`, reusable across values.

    Binning the key (searchsorted + stable sort by bin) is the expensive
    part of a curve; the grouping captures it once so many value columns
    can be reduced against the same key — the engine under
    :func:`repro.engagement.curve_matrix`.

    ``order`` is a stable sort of the in-range sample indices by bin, so
    each bin's slice visits members in original sample order — exactly
    the sequence the naive per-bin mask produced, which keeps reductions
    bit-identical to a record-at-a-time loop.
    """

    edges: np.ndarray
    centers: np.ndarray
    order: np.ndarray
    counts: np.ndarray
    _starts: np.ndarray
    n_keys: int

    @property
    def n_bins(self) -> int:
        return len(self.centers)

    def reduce(self, values: Sequence[float], statistic: str = "mean") -> BinnedCurve:
        """Summarise one value column against the captured grouping."""
        val_arr = _as_1d(values, "values")
        if self.n_keys != len(val_arr):
            raise AnalysisError(
                f"key and values must align: {self.n_keys} != {len(val_arr)}"
            )
        if statistic not in _REDUCERS:
            raise AnalysisError(f"unknown statistic {statistic!r}")
        reducer: Callable = _REDUCERS[statistic]

        stat = np.full(self.n_bins, np.nan)
        sorted_vals = val_arr[self.order]
        for b in range(self.n_bins):
            start = self._starts[b]
            members = sorted_vals[start : start + self.counts[b]]
            if len(members):
                stat[b] = float(reducer(members))
        return BinnedCurve(
            edges=self.edges,
            centers=self.centers,
            stat=stat,
            counts=self.counts.copy(),
        )


def bin_grouping(key: Sequence[float], edges: Sequence[float]) -> BinGrouping:
    """Bin ``key`` by ``edges`` once, for reuse across value columns.

    Samples with a key outside ``[edges[0], edges[-1]]`` are dropped, which
    matches the paper's practice of restricting each panel to a fixed range.
    """
    key_arr = _as_1d(key, "key")
    edge_arr = np.asarray(edges, dtype=float)
    if edge_arr.ndim != 1 or len(edge_arr) < 2:
        raise AnalysisError("edges must contain at least two values")
    if not np.all(np.diff(edge_arr) > 0):
        raise AnalysisError("edges must be strictly increasing")

    n_bins = len(edge_arr) - 1
    idx = np.searchsorted(edge_arr, key_arr, side="right") - 1
    # Fold the right edge into the final bin so edges[-1] is inclusive.
    idx[key_arr == edge_arr[-1]] = n_bins - 1
    in_range = (idx >= 0) & (idx < n_bins)

    sel = np.flatnonzero(in_range)
    order = sel[np.argsort(idx[sel], kind="stable")]
    counts = np.bincount(idx[sel], minlength=n_bins).astype(int)
    starts = np.concatenate([[0], np.cumsum(counts[:-1])])
    centers = (edge_arr[:-1] + edge_arr[1:]) / 2
    return BinGrouping(
        edges=edge_arr,
        centers=centers,
        order=order,
        counts=counts,
        _starts=starts,
        n_keys=len(key_arr),
    )


def bin_statistic(
    key: Sequence[float],
    values: Sequence[float],
    edges: Sequence[float],
    statistic: str = "mean",
) -> BinnedCurve:
    """Group ``values`` by which bin of ``edges`` their ``key`` falls in.

    This is the workhorse behind every Fig. 1-style plot: ``key`` is a
    per-session network metric, ``values`` is a per-session engagement
    metric, and the result is the engagement curve over the metric.

    Args:
        key: per-sample bin key (e.g. mean session latency, ms).
        values: per-sample value to summarise (e.g. Presence, %).
        edges: monotonically increasing bin edges.
        statistic: ``"mean"``, ``"median"``, ``"p95"``, or ``"count"``.

    Numpy float arrays pass through without copying; Python lists are
    converted once.  Samples with a key outside ``[edges[0], edges[-1]]``
    are dropped, which matches the paper's practice of restricting each
    panel to a fixed range.
    """
    key_arr = _as_1d(key, "key")
    val_arr = _as_1d(values, "values")
    if len(key_arr) != len(val_arr):
        raise AnalysisError(
            f"key and values must align: {len(key_arr)} != {len(val_arr)}"
        )
    return bin_grouping(key_arr, edges).reduce(val_arr, statistic)


def unique_counts(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted distinct values of an integer array and how often each occurs.

    ``np.unique(values, return_counts=True)`` by one plain sort, which
    for the arrays of a USaaS answer (10^4 rows) is several times faster
    than ``np.unique``'s own path.
    """
    ordered = np.sort(values)
    new = np.ones(len(ordered), dtype=bool)
    new[1:] = ordered[1:] != ordered[:-1]
    starts = np.flatnonzero(new)
    return ordered[starts], np.diff(starts, append=len(ordered))


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson linear correlation coefficient.

    Returns 0.0 when either input is constant (correlation undefined),
    which keeps downstream ranking logic total.
    """
    x_arr = _as_1d(x, "x")
    y_arr = _as_1d(y, "y")
    if len(x_arr) != len(y_arr):
        raise AnalysisError("x and y must have equal length")
    if len(x_arr) < 2:
        raise AnalysisError("correlation needs at least two samples")
    if np.std(x_arr) == 0 or np.std(y_arr) == 0:
        return 0.0
    return float(np.corrcoef(x_arr, y_arr)[0, 1])


def _ranks(values: np.ndarray) -> np.ndarray:
    """Average ranks (ties share their mean rank), 1-based."""
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(len(values), dtype=float)
    sorted_vals = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        mean_rank = (i + j) / 2 + 1
        ranks[order[i : j + 1]] = mean_rank
        i = j + 1
    return ranks


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman rank correlation (Pearson over average ranks)."""
    x_arr = _as_1d(x, "x")
    y_arr = _as_1d(y, "y")
    if len(x_arr) != len(y_arr):
        raise AnalysisError("x and y must have equal length")
    if len(x_arr) < 2:
        raise AnalysisError("correlation needs at least two samples")
    return pearson(_ranks(x_arr), _ranks(y_arr))


def percentile(values: Sequence[float], q: float) -> float:
    """Percentile with validation; q in [0, 100]."""
    if not 0 <= q <= 100:
        raise AnalysisError(f"percentile q must be in [0, 100], got {q}")
    arr = _as_1d(values, "values")
    if len(arr) == 0:
        raise AnalysisError("cannot take a percentile of an empty sequence")
    return float(np.percentile(arr, q))


def bootstrap_ci(
    values: Sequence[float],
    statistic: Callable[[np.ndarray], float] = np.median,
    n_resamples: int = 1000,
    confidence: float = 0.95,
    rng: Optional[np.random.Generator] = None,
) -> BootstrapResult:
    """Percentile-bootstrap confidence interval for ``statistic(values)``.

    Used by the Fig. 7 stability analysis (the paper checks that monthly
    median downlink speeds barely move when 5–10 % of the data is dropped).
    """
    arr = _as_1d(values, "values")
    if len(arr) == 0:
        raise AnalysisError("cannot bootstrap an empty sequence")
    if not 0 < confidence < 1:
        raise AnalysisError("confidence must be in (0, 1)")
    if n_resamples < 1:
        raise AnalysisError("n_resamples must be positive")
    if rng is None:
        rng = np.random.default_rng(0)
    estimate = float(statistic(arr))
    resampled = np.empty(n_resamples)
    for i in range(n_resamples):
        sample = arr[rng.integers(0, len(arr), size=len(arr))]
        resampled[i] = statistic(sample)
    alpha = (1 - confidence) / 2
    return BootstrapResult(
        estimate=estimate,
        low=float(np.percentile(resampled, 100 * alpha)),
        high=float(np.percentile(resampled, 100 * (1 - alpha))),
        n_resamples=n_resamples,
        confidence=confidence,
    )

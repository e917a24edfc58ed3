"""Tests for repro.core.stats."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.stats import (
    BinnedCurve,
    bin_statistic,
    pearson,
    percentile,
    spearman,
)
from repro.errors import AnalysisError


class TestBinStatistic:
    def test_means_land_in_right_bins(self):
        curve = bin_statistic(
            key=[0.5, 0.6, 1.5, 1.6, 2.5],
            values=[10, 20, 30, 50, 100],
            edges=[0, 1, 2, 3],
        )
        assert curve.n_bins == 3
        assert curve.stat[0] == pytest.approx(15.0)
        assert curve.stat[1] == pytest.approx(40.0)
        assert curve.stat[2] == pytest.approx(100.0)
        assert list(curve.counts) == [2, 2, 1]

    def test_out_of_range_keys_dropped(self):
        curve = bin_statistic([-5, 0.5, 99], [1, 2, 3], [0, 1])
        assert curve.counts[0] == 1
        assert curve.stat[0] == pytest.approx(2.0)

    def test_right_edge_inclusive(self):
        curve = bin_statistic([1.0], [7], [0, 0.5, 1.0])
        assert curve.counts[1] == 1

    def test_empty_bin_is_nan(self):
        curve = bin_statistic([0.5], [1], [0, 1, 2])
        assert np.isnan(curve.stat[1])

    def test_median_and_p95(self):
        values = list(range(101))
        keys = [0.5] * 101
        median = bin_statistic(keys, values, [0, 1], statistic="median")
        p95 = bin_statistic(keys, values, [0, 1], statistic="p95")
        assert median.stat[0] == pytest.approx(50.0)
        assert p95.stat[0] == pytest.approx(95.0)

    def test_rejects_unknown_statistic(self):
        with pytest.raises(AnalysisError):
            bin_statistic([1], [1], [0, 2], statistic="mode")

    def test_rejects_unsorted_edges(self):
        with pytest.raises(AnalysisError):
            bin_statistic([1], [1], [2, 0])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(AnalysisError):
            bin_statistic([1, 2], [1], [0, 3])

    @given(
        st.lists(st.floats(min_value=0, max_value=10), min_size=1, max_size=50),
    )
    @settings(max_examples=50, deadline=None)
    def test_counts_never_exceed_samples(self, keys):
        values = [1.0] * len(keys)
        curve = bin_statistic(keys, values, np.linspace(0, 10, 6))
        assert curve.counts.sum() <= len(keys)


class TestBinnedCurve:
    def test_validates_edge_count(self):
        with pytest.raises(AnalysisError):
            BinnedCurve(
                edges=np.array([0, 1]),
                centers=np.array([0.5, 1.5]),
                stat=np.array([1.0, 2.0]),
                counts=np.array([1, 1]),
            )

    def test_as_rows(self):
        curve = bin_statistic([0.5], [3.0], [0, 1])
        rows = curve.as_rows()
        assert rows == [(0.5, 3.0, 1)]


class TestCorrelations:
    def test_pearson_perfect_positive(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_pearson_perfect_negative(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_pearson_constant_input_is_zero(self):
        assert pearson([1, 1, 1], [1, 2, 3]) == 0.0

    def test_spearman_monotone_nonlinear(self):
        x = [1, 2, 3, 4, 5]
        y = [1, 8, 27, 64, 125]
        assert spearman(x, y) == pytest.approx(1.0)

    def test_spearman_handles_ties(self):
        r = spearman([1, 1, 2, 3], [1, 2, 3, 4])
        assert -1 <= r <= 1

    def test_rejects_single_sample(self):
        with pytest.raises(AnalysisError):
            pearson([1], [1])

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-100, max_value=100),
                st.floats(min_value=-100, max_value=100),
            ),
            min_size=2,
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_correlations_bounded(self, pairs):
        x = [p[0] for p in pairs]
        y = [p[1] for p in pairs]
        assert -1.0001 <= pearson(x, y) <= 1.0001
        assert -1.0001 <= spearman(x, y) <= 1.0001


def pearson_corrcoef(x, y) -> float:
    """``pearson`` as it was written first: two ``np.std`` checks, then
    ``np.corrcoef``.  The oracle of :class:`TestPearsonKernel`."""
    x_arr = np.asarray(x, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    if np.std(x_arr) == 0 or np.std(y_arr) == 0:
        return 0.0
    return float(np.corrcoef(x_arr, y_arr)[0, 1])


#: A step whose square is near the smallest subnormal: for columns of a
#: few such steps, the mean square ``np.std`` takes can underflow to
#: zero where the covariance diagonal does not.
TINY = 1.5 * 2.0 ** -538


@st.composite
def pearson_columns(draw):
    """Two equal-length columns, each drawn one of five ways."""
    n = draw(st.integers(2, 500))

    def column():
        way = draw(st.sampled_from(
            ("floats", "scaled", "constant", "near_constant", "tiny")
        ))
        if way == "floats":  # NaN and +-inf included
            return draw(st.lists(st.floats(), min_size=n, max_size=n))
        if way == "scaled":
            base = np.array(draw(st.lists(
                st.floats(-1, 1), min_size=n, max_size=n,
            )))
            values = base * 10.0 ** draw(st.integers(-200, 200))
            digits = draw(st.none() | st.integers(0, 3))
            return values if digits is None else np.round(values, digits)
        if way == "constant":
            return [draw(st.floats())] * n
        if way == "near_constant":  # np.std of [0.1] * 3 is not 0
            return [draw(st.sampled_from((0.1, 0.7, 1e-300, 3.3e10)))] * n
        return np.array(draw(st.lists(
            st.integers(0, 3), min_size=n, max_size=n,
        ))) * TINY

    return column(), column()


class TestPearsonKernel:
    """``pearson`` computes ``np.corrcoef``'s arithmetic itself: every
    result equals the oracle's, NaN for NaN."""

    @given(pearson_columns())
    @example(([0.1] * 3, [1.0, 2.0, 3.0]))
    @example(([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))
    @example((np.array([0.0, 1.0, 1.0, 2.0]) * TINY, [0.0, 1.0, 2.0, 3.0]))
    @example(([1.0, float("nan")], [1.0, 2.0]))
    @example(([1.0, float("inf")], [1.0, 2.0]))
    @example(([1.0, 2.0], [float("-inf"), float("inf")]))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_corrcoef_oracle(self, columns):
        with np.errstate(all="ignore"):
            got, want = pearson(*columns), pearson_corrcoef(*columns)
        assert got == want or (got != got and want != want), (got, want)

    def test_a_mean_square_that_underflows_is_constant(self):
        """np.std reads 0 here though the covariance diagonal does not."""
        x = np.array([0.0, 1.0, 1.0, 2.0]) * TINY
        assert np.std(x) == 0 and np.dot(x - x.mean(), x - x.mean()) > 0
        assert pearson(x, [0.0, 1.0, 2.0, 3.0]) == 0.0

    def test_clipped_to_one(self):
        """Unclipped, this r is 1.0000000000000002."""
        x = [0.4, 0.3, 0.0]
        assert pearson(x, x) == pearson_corrcoef(x, x) == 1.0
        assert pearson(x, [-v for v in x]) == -1.0


class TestPercentile:
    def test_median(self):
        assert percentile([1, 2, 3], 50) == 2.0

    def test_rejects_bad_q(self):
        with pytest.raises(AnalysisError):
            percentile([1], 101)

    def test_rejects_empty(self):
        with pytest.raises(AnalysisError):
            percentile([], 50)

"""Property-style breakdown-point suite for the robust estimators.

For each documented estimator, contamination *below* its breakdown
point must move the estimate only boundedly, while the naive mean — at
breakdown point 0 — is dragged arbitrarily far by the same attack.
Seeds 101/202/303, same discipline as the columnar equality pins.
"""

import numpy as np
import pytest

from repro.core.stats import resolve_statistic
from repro.integrity import (
    ESTIMATORS,
    median_of_means,
    robust_mos,
    robust_polarity,
    trimmed_mean,
    winsorized_mean,
)
from repro.rng import derive
from tests.integrity.oracle import (
    rated_weights_records,
    robust_mos_records,
    robust_polarity_records,
)

SEEDS = (101, 202, 303)

OUTLIER = 1e6  # an adversarial value far outside any organic range


def _clean(seed, n=200):
    return derive(seed, "integrity", "breakdown").normal(3.8, 0.4, n)


@pytest.mark.parametrize("seed", SEEDS)
class TestBreakdownPoints:
    def test_mean_breaks_with_one_sample(self, seed):
        values = _clean(seed)
        clean = float(np.mean(values))
        attacked = np.append(values, OUTLIER)
        assert abs(float(np.mean(attacked)) - clean) > 100.0

    @pytest.mark.parametrize("estimator", [trimmed_mean, winsorized_mean])
    def test_trim_family_holds_below_trim_fraction(self, seed, estimator):
        values = _clean(seed)
        clean = estimator(values, trim=0.1)
        # Contaminate strictly below the trim fraction (8% < 10%).
        n_bad = int(0.08 * len(values))
        attacked = np.append(values, np.full(n_bad, OUTLIER))
        assert abs(estimator(attacked, trim=0.1) - clean) < 0.5

    @pytest.mark.parametrize("estimator", [trimmed_mean, winsorized_mean])
    def test_trim_family_breaks_above_trim_fraction(self, seed, estimator):
        values = _clean(seed)
        clean = estimator(values, trim=0.1)
        # 25% contamination overwhelms a 10% trim.
        n_bad = int(0.25 * len(values))
        attacked = np.append(values, np.full(n_bad, OUTLIER))
        assert abs(estimator(attacked, trim=0.1) - clean) > 100.0

    def test_median_of_means_survives_minority_blocks(self, seed):
        values = _clean(seed, n=100)
        clean = median_of_means(values, n_blocks=5)
        # Corrupt 2 of 5 contiguous blocks: fewer than ceil(5/2) = 3.
        attacked = np.array(values)
        attacked[:40] = OUTLIER
        poisoned = median_of_means(attacked, n_blocks=5)
        assert abs(poisoned - clean) < 1.0

    def test_median_of_means_breaks_at_majority_blocks(self, seed):
        values = _clean(seed, n=100)
        clean = median_of_means(values, n_blocks=5)
        attacked = np.array(values)
        attacked[:60] = OUTLIER  # 3 of 5 blocks: the median block lies
        assert abs(median_of_means(attacked, n_blocks=5) - clean) > 100.0


class TestEstimatorTable:
    def test_every_documented_estimator_resolves(self):
        for info in ESTIMATORS:
            reducer = resolve_statistic(info.statistic)
            assert callable(reducer)
            assert np.isfinite(reducer(np.array([1.0, 2.0, 3.0])))

    def test_table_covers_the_robust_family(self):
        names = {info.statistic for info in ESTIMATORS}
        assert {"mean", "trimmed_mean", "winsorized_mean",
                "median_of_means", "median"} <= names

    def test_bin_statistic_accepts_robust_names(self):
        from repro.core.stats import bin_statistic

        rng = derive(101, "integrity", "bins")
        key = rng.uniform(0, 10, 300)
        values = rng.normal(3.8, 0.4, 300)
        robust = bin_statistic(key, values, [0, 5, 10],
                               statistic="trimmed_mean")
        naive = bin_statistic(key, values, [0, 5, 10], statistic="mean")
        assert len(robust.stat) == len(naive.stat) == 2
        assert np.all(np.isfinite(robust.stat))


class TestRecordColumnarEquality:
    """The soak test pins these per ε; here they are pinned in isolation."""

    @pytest.mark.parametrize("statistic",
                             ["mean", "trimmed_mean", "median_of_means"])
    def test_mos_paths_agree_exactly(self, small_dataset, statistic):
        from repro.perf.columnar import ParticipantColumns

        cols = ParticipantColumns.from_dataset(small_dataset)
        expected = robust_mos_records(small_dataset, statistic)
        assert robust_mos(cols, statistic) == expected
        assert robust_mos(small_dataset, statistic) == expected

    def test_polarity_paths_agree_exactly(self, small_corpus):
        from repro.nlp.sentiment import SentimentAnalyzer
        from repro.perf.columnar import CorpusColumns

        analyzer = SentimentAnalyzer()
        cols = CorpusColumns.from_corpus(small_corpus)
        expected = robust_polarity_records(
            small_corpus, analyzer, "trimmed_mean"
        )
        assert robust_polarity(cols, analyzer, "trimmed_mean") == expected
        assert robust_polarity(small_corpus, None, "trimmed_mean") == expected

    def test_weighted_paths_agree_exactly(self, small_dataset):
        from repro.integrity import rated_weights, score_raters
        from repro.perf.columnar import ParticipantColumns

        scores = score_raters(small_dataset)
        cols = ParticipantColumns.from_dataset(small_dataset)
        weights = rated_weights(cols, scores)
        assert weights.tobytes() == rated_weights_records(
            small_dataset, scores
        ).tobytes()
        assert robust_mos(
            cols, "mean", weights=weights,
        ) == robust_mos_records(
            small_dataset, "mean",
            weights=rated_weights_records(small_dataset, scores),
        )


class TestWeightPrefilter:
    def test_zero_weights_drop_samples(self):
        values = np.array([1.0, 5.0, 5.0, 5.0])
        from repro.integrity.estimators import _apply_weights

        kept = _apply_weights(values, np.array([0.0, 1.0, 1.0, 1.0]))
        assert kept.tolist() == [5.0, 5.0, 5.0]

    def test_misaligned_weights_rejected(self):
        from repro.errors import AnalysisError
        from repro.integrity.estimators import _apply_weights

        with pytest.raises(AnalysisError):
            _apply_weights(np.array([1.0, 2.0]), np.array([1.0]))

    def test_all_zero_weights_rejected(self):
        from repro.errors import AnalysisError
        from repro.integrity.estimators import _apply_weights

        with pytest.raises(AnalysisError):
            _apply_weights(np.array([1.0]), np.array([0.0]))

    def test_negative_weights_rejected(self):
        from repro.errors import AnalysisError
        from repro.integrity.estimators import _apply_weights

        with pytest.raises(AnalysisError):
            _apply_weights(np.array([1.0]), np.array([-0.5]))


class TestEngagementThreading:
    def test_mos_by_engagement_accepts_robust_statistic(self, small_dataset):
        from repro.engagement.mos_link import mos_by_engagement

        robust = mos_by_engagement(
            small_dataset.participants(), statistic="trimmed_mean"
        )
        naive = mos_by_engagement(small_dataset.participants())
        assert robust.n_rated == naive.n_rated
        for name, curve in robust.curves.items():
            # Bins under min_bin_count (default 5) are masked to NaN.
            kept = curve.stat[np.asarray(curve.counts) >= 5]
            assert np.all(np.isfinite(kept)), name

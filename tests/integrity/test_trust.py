"""Trust scoring: flags the planted adversaries, spares the organic."""

import numpy as np
import pytest

from repro.integrity import (
    contamination_estimate,
    fraud_rating_mask,
    post_weights,
    rated_weights,
    score_authors,
    score_raters,
    score_signal_units,
    text_fingerprint,
)
from repro.resilience.faults import DataFaultSpec, FaultPlan
from tests.integrity.oracle import post_weights_records, rated_weights_records


@pytest.fixture(scope="module")
def fraud_calls(small_dataset_module):
    injector = FaultPlan(seed=7).data_faults(
        "trust-fraud", DataFaultSpec(fraud_fraction=0.15, fraud_rating=1)
    )
    return injector.contaminate_calls(small_dataset_module)


@pytest.fixture(scope="module")
def brigade_corpus(small_corpus_module):
    injector = FaultPlan(seed=7).data_faults(
        "trust-brigade", DataFaultSpec(brigade_fraction=0.1)
    )
    return injector.contaminate_corpus(small_corpus_module)


@pytest.fixture(scope="module")
def small_dataset_module():
    from repro.telemetry import CallDatasetGenerator, GeneratorConfig

    return CallDatasetGenerator(
        GeneratorConfig(n_calls=150, seed=42, mos_sample_rate=0.3)
    ).generate()


@pytest.fixture(scope="module")
def small_corpus_module():
    import datetime as dt

    from repro.social import CorpusConfig, CorpusGenerator

    return CorpusGenerator(CorpusConfig(
        seed=42,
        span_start=dt.date(2022, 1, 1),
        span_end=dt.date(2022, 2, 28),
    )).generate()


class TestFingerprint:
    def test_normalises_whitespace_and_case(self):
        assert text_fingerprint("Slow  Wifi\ttoday") == text_fingerprint(
            "slow wifi today"
        )

    def test_distinct_texts_differ(self):
        assert text_fingerprint("great call") != text_fingerprint("bad call")


class TestRaterScoring:
    def test_clean_dataset_flags_nobody(self, small_dataset_module):
        scores = score_raters(small_dataset_module)
        assert all(s.trust == 1.0 for s in scores.values())
        assert contamination_estimate(scores) == 0.0

    def test_fraud_cohort_flagged(self, fraud_calls):
        scores = score_raters(fraud_calls.dataset)
        flagged = {u for u, s in scores.items() if s.trust == 0.0}
        assert flagged
        # Every flagged unit is a planted shill, and the planted
        # cohort's high-volume members are caught.
        assert flagged <= set(fraud_calls.fraud_users)
        for unit in flagged:
            assert scores[unit].flags == ("rating_fraud",)
        assert contamination_estimate(scores) > 0.0

    def test_scores_are_unit_sorted(self, fraud_calls):
        units = list(score_raters(fraud_calls.dataset))
        assert units == sorted(units)


class TestAuthorScoring:
    def test_clean_corpus_low_false_positive_rate(self, small_corpus_module):
        scores = score_authors(small_corpus_module.posts())
        assert contamination_estimate(scores) <= 0.02

    def test_viral_template_is_not_a_ring(self):
        """Hundreds of organic authors reposting a template once or
        twice must not trip the concentration-gated ring test."""
        import datetime as dt
        from types import SimpleNamespace

        day = dt.date(2022, 5, 1)
        posts = [
            SimpleNamespace(
                author=f"organic-{i:03d}", date=day,
                full_text="Is Starlink down right now?",
            )
            for i in range(200)
        ] + [
            SimpleNamespace(
                author=f"organic-{i:03d}", date=day + dt.timedelta(days=1),
                full_text="Is Starlink down right now?",
            )
            for i in range(40)  # some repost it once more
        ]
        scores = score_authors(posts)
        assert all(
            "template_ring" not in s.flags for s in scores.values()
        )

    def test_ring_authors_flagged(self, brigade_corpus):
        scores = score_authors(brigade_corpus.corpus.posts())
        flagged = {a for a, s in scores.items() if s.trust == 0.0}
        assert set(brigade_corpus.ring_authors) <= flagged

    def test_ring_flag_names_the_ring(self, brigade_corpus):
        scores = score_authors(brigade_corpus.corpus.posts())
        for author in brigade_corpus.ring_authors:
            assert "template_ring" in scores[author].flags


class TestWeights:
    def test_rated_weights_align_with_rated_sessions(
        self, fraud_calls,
    ):
        scores = score_raters(fraud_calls.dataset)
        weights = rated_weights(fraud_calls.dataset, scores)
        n_rated = sum(
            1 for p in fraud_calls.dataset.participants()
            if p.rating is not None
        )
        assert weights.shape == (n_rated,)
        assert np.all((weights >= 0) & (weights <= 1))
        assert np.any(weights == 0.0)
        assert weights.tobytes() == rated_weights_records(
            fraud_calls.dataset, scores
        ).tobytes()

    def test_post_weights_zero_for_ring(self, brigade_corpus):
        scores = score_authors(brigade_corpus.corpus.posts())
        weights = post_weights(brigade_corpus.corpus, scores)
        posts = list(brigade_corpus.corpus.posts())
        ring = set(brigade_corpus.ring_authors)
        for post, w in zip(posts, weights):
            if post.author in ring:
                assert w == 0.0
        assert weights.tobytes() == post_weights_records(
            brigade_corpus.corpus, scores
        ).tobytes()

    def test_unknown_units_default_to_full_trust(self, small_corpus_module):
        weights = post_weights(small_corpus_module, {})
        assert np.all(weights == 1.0)


class TestSignalUnits:
    def test_flags_constant_extreme_rater(self):
        from repro.core.signals import Signal
        import datetime as dt

        base = dt.datetime(2022, 1, 1)
        signals = [
            Signal(
                kind="explicit", timestamp=base + dt.timedelta(hours=i),
                network="starlink", metric="rating", value=1.0,
                attrs=(("user", "shill"),),
            )
            for i in range(6)
        ] + [
            Signal(
                kind="explicit",
                timestamp=base + dt.timedelta(days=2 + i),
                network="starlink", metric="rating", value=float(3 + i % 3),
                attrs=(("user", f"organic-{i}"),),
            )
            for i in range(6)
        ]
        scores = score_signal_units(signals)
        assert scores["shill"].trust == 0.0
        assert "rating_fraud" in scores["shill"].flags
        assert all(
            scores[f"organic-{i}"].trust == 1.0 for i in range(6)
        )

    def test_signals_without_user_attr_skipped(self):
        from repro.core.signals import Signal
        import datetime as dt

        signals = [Signal(
            kind="implicit", timestamp=dt.datetime(2022, 1, 1),
            network="starlink", metric="latency_ms", value=40.0,
        )]
        assert score_signal_units(signals) == {}


class TestPredictionFilter:
    """fit_columns(exclude=...) keeps fraud out of the trainer."""

    def test_none_and_all_false_are_byte_identical(self, fraud_calls):
        from repro.perf.columnar import ParticipantColumns
        from repro.prediction import ColumnarMosPredictor

        cols = ParticipantColumns.from_dataset(fraud_calls.dataset)
        plain = ColumnarMosPredictor().fit_columns(cols)
        masked = ColumnarMosPredictor().fit_columns(
            cols, exclude=np.zeros(len(cols), dtype=bool)
        )
        for name, w in plain.weights().items():
            assert np.float64(w).tobytes() == np.float64(
                masked.weights()[name]
            ).tobytes()

    def test_fraud_mask_changes_the_fit(self, fraud_calls):
        from repro.perf.columnar import ParticipantColumns
        from repro.prediction import ColumnarMosPredictor

        cols = ParticipantColumns.from_dataset(fraud_calls.dataset)
        scores = score_raters(fraud_calls.dataset)
        mask = fraud_rating_mask(cols, scores)
        assert mask.any()
        plain = ColumnarMosPredictor().fit_columns(cols)
        filtered = ColumnarMosPredictor().fit_columns(cols, exclude=mask)
        assert plain.weights() != filtered.weights()

    def test_filtered_fit_matches_clean_reference_better(
        self, small_dataset_module, fraud_calls,
    ):
        """Dropping fraud rows pulls the intercept back toward clean."""
        from repro.perf.columnar import ParticipantColumns
        from repro.prediction import ColumnarMosPredictor

        clean_cols = ParticipantColumns.from_dataset(small_dataset_module)
        tainted_cols = ParticipantColumns.from_dataset(fraud_calls.dataset)
        scores = score_raters(fraud_calls.dataset)
        mask = fraud_rating_mask(tainted_cols, scores)

        clean_mean = float(np.nanmean(
            np.asarray(clean_cols.rating, dtype=float)
        ))
        naive_pred = ColumnarMosPredictor().fit_columns(tainted_cols)
        safe_pred = ColumnarMosPredictor().fit_columns(
            tainted_cols, exclude=mask
        )
        naive_mean = float(np.mean(naive_pred.predict_columns(clean_cols)))
        safe_mean = float(np.mean(safe_pred.predict_columns(clean_cols)))
        assert abs(safe_mean - clean_mean) < abs(naive_mean - clean_mean)

    def test_misshapen_mask_rejected(self, fraud_calls):
        from repro.errors import AnalysisError
        from repro.perf.columnar import ParticipantColumns
        from repro.prediction import ColumnarMosPredictor

        cols = ParticipantColumns.from_dataset(fraud_calls.dataset)
        with pytest.raises(AnalysisError):
            ColumnarMosPredictor().fit_columns(
                cols, exclude=np.zeros(3, dtype=bool)
            )

"""Data-fault injectors: seeded, pure, ground-truthed.

The soak's byte-identity guarantee rests on these properties — same
plan seed means identical contaminated artifacts, and the clean input
is never mutated.
"""

import datetime as dt

import pytest

from repro.errors import ConfigError
from repro.resilience.faults import (
    BRIGADE_TEMPLATES,
    DataFaultSpec,
    FaultPlan,
)


@pytest.fixture(scope="module")
def clean_dataset():
    from repro.telemetry import CallDatasetGenerator, GeneratorConfig

    return CallDatasetGenerator(
        GeneratorConfig(n_calls=120, seed=42, mos_sample_rate=0.3)
    ).generate()


@pytest.fixture(scope="module")
def clean_corpus():
    from repro.social import CorpusConfig, CorpusGenerator

    return CorpusGenerator(CorpusConfig(
        seed=42,
        span_start=dt.date(2022, 1, 1),
        span_end=dt.date(2022, 1, 28),
    )).generate()


def _brigade(seed, corpus, fraction=0.1):
    injector = FaultPlan(seed=seed).data_faults(
        "faults-test", DataFaultSpec(brigade_fraction=fraction)
    )
    return injector.contaminate_corpus(corpus)


def _fraud(seed, dataset, fraction=0.15):
    injector = FaultPlan(seed=seed).data_faults(
        "faults-test",
        DataFaultSpec(fraud_fraction=fraction, fraud_rating=1),
    )
    return injector.contaminate_calls(dataset)


class TestDeterminism:
    def test_same_seed_same_brigade(self, clean_corpus):
        a = _brigade(11, clean_corpus)
        b = _brigade(11, clean_corpus)
        assert a.injected_post_ids == b.injected_post_ids
        assert a.ring_authors == b.ring_authors
        assert [
            (p.post_id, p.created, p.author, p.full_text)
            for p in a.corpus.posts()
        ] == [
            (p.post_id, p.created, p.author, p.full_text)
            for p in b.corpus.posts()
        ]

    def test_different_seed_different_brigade(self, clean_corpus):
        a = _brigade(11, clean_corpus)
        b = _brigade(12, clean_corpus)
        assert [p.created for p in a.corpus.posts()] != [
            p.created for p in b.corpus.posts()
        ]

    def test_same_seed_same_fraud(self, clean_dataset):
        a = _fraud(11, clean_dataset)
        b = _fraud(11, clean_dataset)
        assert a.fraud_sessions == b.fraud_sessions
        assert a.drifted_sessions == b.drifted_sessions


class TestPurity:
    def test_corpus_input_not_mutated(self, clean_corpus):
        before = [(p.post_id, p.author) for p in clean_corpus.posts()]
        _brigade(11, clean_corpus)
        after = [(p.post_id, p.author) for p in clean_corpus.posts()]
        assert before == after

    def test_dataset_input_not_mutated(self, clean_dataset):
        before = [
            (p.user_id, p.rating) for p in clean_dataset.participants()
        ]
        _fraud(11, clean_dataset)
        after = [
            (p.user_id, p.rating) for p in clean_dataset.participants()
        ]
        assert before == after


class TestBrigadeGroundTruth:
    def test_injection_count_matches_fraction(self, clean_corpus):
        out = _brigade(11, clean_corpus, fraction=0.1)
        assert out.n_injected == round(0.1 * len(clean_corpus))
        assert len(out.corpus) == len(clean_corpus) + out.n_injected

    def test_ring_authors_wrote_every_injected_post(self, clean_corpus):
        out = _brigade(11, clean_corpus)
        injected = set(out.injected_post_ids)
        ring = set(out.ring_authors)
        by_id = {p.post_id: p for p in out.corpus.posts()}
        for post_id in injected:
            assert by_id[post_id].author in ring

    def test_injected_posts_cycle_templates(self, clean_corpus):
        out = _brigade(11, clean_corpus)
        templates = {text for _, text in BRIGADE_TEMPLATES}
        by_id = {p.post_id: p for p in out.corpus.posts()}
        for post_id in out.injected_post_ids:
            assert by_id[post_id].text in templates

    def test_zero_fraction_injects_nothing(self, clean_corpus):
        out = _brigade(11, clean_corpus, fraction=0.0)
        assert out.n_injected == 0
        assert out.ring_authors == ()
        assert len(out.corpus) == len(clean_corpus)


class TestFraudGroundTruth:
    def test_fraud_sessions_have_the_planted_rating(self, clean_dataset):
        out = _fraud(11, clean_dataset)
        assert len(out.fraud_sessions) > 0
        by_user = {}
        for p in out.dataset.participants():
            by_user.setdefault(p.user_id, []).append(p.rating)
        for _, user in out.fraud_sessions:
            assert user in set(out.fraud_users)
            assert all(r == 1 for r in by_user[user])

    def test_drift_biases_the_metric(self, clean_dataset):
        injector = FaultPlan(seed=11).data_faults(
            "faults-test",
            DataFaultSpec(
                drift_fraction=0.3, drift_metric="latency_ms",
                drift_bias=40.0,
            ),
        )
        out = injector.contaminate_calls(clean_dataset)
        assert len(out.drifted_sessions) > 0
        clean = {
            (c.call_id, p.user_id): p
            for c in clean_dataset for p in c.participants
        }
        drifted = set(out.drifted_sessions)
        for call in out.dataset:
            for p in call.participants:
                if (call.call_id, p.user_id) in drifted:
                    ref = clean[(call.call_id, p.user_id)]
                    if "latency_ms" in ref.network:
                        for stat, value in ref.network["latency_ms"].items():
                            assert p.network["latency_ms"][stat] == (
                                value + 40.0
                            )


class TestStreamMangling:
    def _records(self, n=200):
        return [
            {
                "event_time_s": float(i), "source": "telemetry",
                "metric": "latency_ms", "value": 40.0 + i % 5,
                "key": f"u{i % 7}",
            }
            for i in range(n)
        ]

    def test_counts_add_up(self):
        injector = FaultPlan(seed=11).data_faults(
            "faults-test",
            DataFaultSpec(malform_rate=0.1, drop_rate=0.05),
        )
        raw = self._records()
        out = injector.mangle_stream(raw)
        assert len(out.records) == len(raw) - out.dropped
        assert out.malformed > 0 and out.dropped > 0

    def test_mangled_records_fail_validation(self):
        from repro.integrity import parse_stream_dicts

        injector = FaultPlan(seed=11).data_faults(
            "faults-test", DataFaultSpec(malform_rate=0.2)
        )
        out = injector.mangle_stream(self._records())
        boundary = parse_stream_dicts(out.records)
        assert boundary.n_quarantined == out.malformed
        assert len(boundary.records) == len(out.records) - out.malformed

    def test_deterministic_per_seed(self):
        spec = DataFaultSpec(malform_rate=0.1, drop_rate=0.05)
        raw = self._records()
        a = FaultPlan(seed=11).data_faults("f", spec).mangle_stream(raw)
        b = FaultPlan(seed=11).data_faults("f", spec).mangle_stream(raw)
        assert a.records == b.records
        assert (a.dropped, a.malformed) == (b.dropped, b.malformed)


class TestSpecValidation:
    def test_fractions_must_be_probabilities(self):
        with pytest.raises(ConfigError):
            DataFaultSpec(brigade_fraction=1.5)
        with pytest.raises(ConfigError):
            DataFaultSpec(fraud_fraction=-0.1)

    def test_drop_plus_malform_bounded(self):
        with pytest.raises(ConfigError):
            DataFaultSpec(malform_rate=0.7, drop_rate=0.6)

    def test_fraud_rating_is_a_star_value(self):
        with pytest.raises(ConfigError):
            DataFaultSpec(fraud_rating=0)
        with pytest.raises(ConfigError):
            DataFaultSpec(fraud_rating=6)

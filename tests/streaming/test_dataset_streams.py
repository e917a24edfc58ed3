"""Dataset → stream adapters: the batch/live boundary is deterministic."""

import datetime as dt

import pytest

from repro.nlp.sentiment import SentimentAnalyzer
from repro.perf.columnar import corpus_columns
from repro.social.corpus import CorpusConfig, CorpusGenerator, RedditCorpus
from repro.social.streams import social_stream
from repro.telemetry.generator import CallDatasetGenerator, GeneratorConfig
from repro.telemetry.schema import NETWORK_METRICS
from repro.telemetry.store import CallDataset
from repro.telemetry.streams import telemetry_stream
from tests.streaming.oracle import (
    social_stream_records,
    telemetry_stream_records,
)


@pytest.fixture(scope="module")
def dataset():
    config = GeneratorConfig(n_calls=15, seed=5, mos_sample_rate=0.5)
    return CallDatasetGenerator(config).generate()


@pytest.fixture(scope="module")
def corpus():
    config = CorpusConfig(
        seed=5,
        span_start=dt.date(2022, 1, 1),
        span_end=dt.date(2022, 1, 14),
        speed_share_count=40,
    )
    return CorpusGenerator(config).generate()


class TestTelemetryStream:
    def test_event_time_ordered_and_deterministic(self, dataset):
        a = telemetry_stream(dataset)
        b = telemetry_stream(dataset)
        assert a == b
        times = [r.event_time_s for r in a]
        assert times == sorted(times)
        assert times[0] == 0.0  # epoch defaults to the first call

    def test_network_metrics_and_ratings_emitted(self, dataset):
        records = telemetry_stream(dataset)
        metrics = {r.metric for r in records if r.role == "network"}
        assert metrics == set(NETWORK_METRICS)
        ratings = [r for r in records if r.role == "experience"]
        assert ratings  # mos_sample_rate=0.5 guarantees some
        assert all(r.metric == "rating" for r in ratings)
        assert all(1.0 <= r.value <= 5.0 for r in ratings)

    def test_keys_are_scrubbed(self, dataset):
        raw_ids = {
            p.user_id for call in dataset for p in call.participants
        }
        keys = {r.key for r in telemetry_stream(dataset)}
        assert keys.isdisjoint(raw_ids)

    def test_explicit_epoch_shifts_times(self, dataset):
        calls = list(dataset)
        first = min(call.start for call in calls)
        epoch = first - dt.timedelta(seconds=100)
        shifted = telemetry_stream(dataset, epoch=epoch)
        assert min(r.event_time_s for r in shifted) == 100.0


class TestSocialStream:
    def test_event_time_ordered_and_deterministic(self, corpus):
        a = social_stream(corpus)
        b = social_stream(corpus)
        assert a == b
        times = [r.event_time_s for r in a]
        assert times == sorted(times)

    def test_sentiment_and_speed_records(self, corpus):
        records = social_stream(corpus)
        sentiment = [r for r in records if r.metric == "sentiment_polarity"]
        speeds = [r for r in records if r.metric == "reported_downlink_mbps"]
        assert len(sentiment) == len(list(corpus))
        assert all(r.role == "experience" for r in sentiment)
        assert speeds  # speed_share_count=40 guarantees some
        assert all(r.role == "network" and r.value >= 0.0 for r in speeds)

    def test_authors_are_scrubbed(self, corpus):
        authors = {post.author for post in corpus}
        keys = {r.key for r in social_stream(corpus)}
        assert keys.isdisjoint(authors)


#: Seeds the exports are pinned on against the record-loop oracles.
ORACLE_SEEDS = (101, 202, 303)


@pytest.fixture(scope="module", params=ORACLE_SEEDS)
def seeded(request):
    seed = request.param
    calls = CallDatasetGenerator(
        GeneratorConfig(n_calls=20, seed=seed, mos_sample_rate=0.4)
    ).generate()
    posts = CorpusGenerator(CorpusConfig(
        seed=seed,
        span_start=dt.date(2022, 1, 1),
        span_end=dt.date(2022, 1, 20),
        speed_share_count=30,
    )).generate()
    return calls, posts


def fresh(corpus):
    """The same posts in a new container: no memoized columns."""
    return RedditCorpus(corpus.posts(), corpus.config)


class TestExportsMatchRecordOracles:
    def test_telemetry_default_epoch(self, seeded):
        calls, _ = seeded
        records = telemetry_stream(CallDataset(calls))
        assert any(r.metric == "rating" for r in records)
        assert records == telemetry_stream_records(calls)

    def test_telemetry_explicit_epoch(self, seeded):
        calls, _ = seeded
        epoch = min(call.start for call in calls) - dt.timedelta(
            seconds=37.25
        )
        assert telemetry_stream(CallDataset(calls), epoch=epoch) == (
            telemetry_stream_records(calls, epoch=epoch)
        )

    def test_social_default_epoch(self, seeded):
        _, corpus = seeded
        records = social_stream(fresh(corpus))
        assert any(r.metric == "reported_downlink_mbps" for r in records)
        assert records == social_stream_records(corpus)

    def test_social_explicit_epoch(self, seeded):
        _, corpus = seeded
        epoch = dt.datetime(2021, 12, 31, 12, 0, 0, 500)
        assert social_stream(fresh(corpus), epoch=epoch) == (
            social_stream_records(corpus, epoch=epoch)
        )

    def test_social_explicit_analyzer(self, seeded):
        _, corpus = seeded
        assert social_stream(fresh(corpus), analyzer=SentimentAnalyzer()) == (
            social_stream_records(corpus, analyzer=SentimentAnalyzer())
        )

    def test_empty_dataset(self):
        assert telemetry_stream(CallDataset()) == []
        assert telemetry_stream_records(CallDataset()) == []

    def test_empty_corpus(self, corpus):
        empty = RedditCorpus([], corpus.config)
        assert social_stream(empty) == []
        assert social_stream_records(empty) == []


def test_social_stream_reads_the_shared_sentiment_block(
    corpus, monkeypatch
):
    """Once a pass has scored the corpus, the export scores nothing."""
    expected = social_stream_records(corpus)
    again = fresh(corpus)
    corpus_columns(again).sentiment()
    calls = []
    score = SentimentAnalyzer.score

    def counting(self, text):
        calls.append(text)
        return score(self, text)

    monkeypatch.setattr(SentimentAnalyzer, "score", counting)
    assert social_stream(again) == expected
    assert calls == []

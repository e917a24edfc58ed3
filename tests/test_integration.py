"""Cross-package integration tests: the full paper pipelines, small scale.

These tests exercise the complete §3 and §4 chains (generation →
analysis) and the §5 service on top of both, at sizes small enough for
the unit-test budget.  They complement the benchmarks, which run the
same chains at figure scale.
"""

import datetime as dt

import numpy as np
import pytest

from repro.analysis import (
    outage_keyword_series,
    sentiment_timeline,
    track_speeds,
)
from repro.core.usaas import (
    UsaasQuery,
    UsaasService,
    social_signals,
    telemetry_signals,
)
from repro.engagement import CohortFilter, fig1_curves, mos_by_engagement
from repro.prediction import train_test_evaluate


class TestSection3Chain:
    """telemetry → engagement analyses."""

    def test_dataset_to_fig1_to_predictor(self, small_dataset):
        pool = list(CohortFilter().apply(small_dataset).participants())
        assert pool

        fig1 = fig1_curves(pool, use_control_windows=False, min_bin_count=5)
        assert set(fig1.curves) == {
            "latency_ms", "loss_pct", "jitter_ms", "bandwidth_mbps"
        }

        mos = mos_by_engagement(small_dataset.participants())
        assert mos.strongest_metric() in (
            "presence_pct", "cam_on_pct", "mic_on_pct"
        )

        report = train_test_evaluate(small_dataset.participants())
        assert report.mae < 1.5  # far better than random (expected ~1.6+)

    def test_jsonl_roundtrip_preserves_analysis(self, small_dataset, tmp_path):
        """Persisting and reloading must not change analysis outputs."""
        path = tmp_path / "calls.jsonl"
        small_dataset.to_jsonl(path)
        from repro.telemetry.store import CallDataset

        reloaded = CallDataset.from_jsonl(path)
        original = mos_by_engagement(small_dataset.participants())
        roundtrip = mos_by_engagement(reloaded.participants())
        for name in original.correlations:
            assert roundtrip.correlations[name] == pytest.approx(
                original.correlations[name]
            )


class TestSection4Chain:
    """social corpus → nlp/ocr analyses."""

    def test_corpus_to_all_pipelines(self, small_corpus):
        timeline = sentiment_timeline(small_corpus)
        assert len(timeline.scores) == len(small_corpus)

        outages = outage_keyword_series(small_corpus)
        # Both 2022 H1 headline outages visible.
        assert outages.occurrences[dt.date(2022, 1, 7)] > 0
        assert outages.occurrences[dt.date(2022, 4, 22)] > 0

        track = track_speeds(small_corpus, min_reports_per_month=5)
        assert track.n_extracted > 0
        finite = [v for _, v in track.median.items() if not np.isnan(v)]
        assert finite
        assert all(5 < v < 200 for v in finite)

    def test_analysis_never_touches_ground_truth(self, small_corpus):
        """The speed tracker must work from OCR output alone; corrupting
        the ground-truth objects after rendering would be invisible.  We
        verify the weaker, testable property: extracted medians differ
        from truth (noise exists) yet stay close (medians are robust)."""
        track = track_speeds(small_corpus)
        truth = {}
        for post in small_corpus.speed_shares():
            month = (post.date.year, post.date.month)
            truth.setdefault(month, []).append(post.speed_test.download_mbps)
        compared = 0
        for month, values in truth.items():
            if len(values) < 30:
                continue
            measured = track.median[month]
            if np.isnan(measured):
                continue
            compared += 1
            assert measured == pytest.approx(
                float(np.median(values)), rel=0.2
            )
        assert compared > 0


class TestSection5Chain:
    """both signal families → USaaS."""

    def test_service_over_both_sources(self, small_dataset, small_corpus):
        service = UsaasService()
        service.register_source(
            "teams", lambda: telemetry_signals(small_dataset, network="starlink")
        )
        service.register_source("reddit", lambda: social_signals(small_corpus))
        report = service.answer(UsaasQuery(network="starlink", service="teams"))
        assert report.n_implicit > 0
        assert report.n_explicit > 0
        kinds = {i.kind for i in report.insights}
        assert "level" in kinds
        assert report.summary.startswith("USaaS digest")

    def test_determinism_end_to_end(self):
        """Same seeds → byte-identical summaries."""
        from repro.social import CorpusConfig, CorpusGenerator
        from repro.telemetry import CallDatasetGenerator, GeneratorConfig

        def build():
            ds = CallDatasetGenerator(
                GeneratorConfig(n_calls=40, seed=9, mos_sample_rate=0.2)
            ).generate()
            corpus = CorpusGenerator(CorpusConfig(
                seed=9,
                span_start=dt.date(2022, 1, 1),
                span_end=dt.date(2022, 2, 28),
                author_pool_size=300,
            )).generate()
            service = UsaasService()
            service.register_source(
                "teams", lambda: telemetry_signals(ds, network="starlink")
            )
            service.register_source(
                "reddit", lambda: social_signals(corpus)
            )
            return service.answer(UsaasQuery(network="starlink")).summary

        assert build() == build()

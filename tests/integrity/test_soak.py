"""The ε-contamination soak: contract, determinism, validation.

Small scale (120 calls, 2 corpus weeks) keeps the sweep fast; the CLI
defaults run the full grid.
"""

import dataclasses
import datetime as dt

import pytest

from repro.errors import ConfigError
from repro.integrity import run_integrity_soak, score_authors, score_raters
from repro.nlp.sentiment import SentimentAnalyzer
from repro.resilience.faults import DataFaultSpec, FaultPlan
from repro.social.corpus import CorpusConfig, CorpusGenerator
from repro.telemetry.generator import CallDatasetGenerator, GeneratorConfig
from repro.verdict import Verdict
from tests.integrity.oracle import (
    post_weights_records,
    rated_weights_records,
    robust_mos_records,
    robust_polarity_records,
)

SEED = 20231128
SOAK_KW = dict(n_calls=120, mos_sample_rate=0.3, corpus_weeks=2)


@pytest.fixture(scope="module")
def report():
    return run_integrity_soak(seed=SEED, **SOAK_KW)


class TestContract:
    def test_sweep_proves_both_halves(self, report):
        assert not report.violations
        assert not report.ineffective
        assert report.exit_code == 0

    def test_naive_breaks_and_trust_holds_at_top_eps(self, report):
        top = report.rows[-1]
        assert top.eps == 0.2
        # Deviations are signed (fraud drags MOS down, spam drags
        # polarity negative); the bound is on the magnitude.
        assert abs(top.mos_naive_dev) > report.mos_bound
        assert abs(top.mos_trust_dev) <= report.mos_bound
        assert abs(top.polarity_naive_dev) > report.polarity_bound
        assert abs(top.polarity_trust_dev) <= report.polarity_bound

    def test_clean_row_flags_nothing(self, report):
        clean = report.rows[0]
        assert clean.eps == 0.0
        assert clean.n_fraud_flagged == 0
        assert clean.rating_contamination == 0.0
        assert clean.post_contamination <= 0.02
        assert clean.mos_naive_dev == 0.0

    def test_columnar_path_pinned_at_every_eps(self, report):
        """Each row's aggregates equal the record oracles, exactly, on
        the same seeded tainted inputs the soak built."""
        dataset = CallDatasetGenerator(GeneratorConfig(
            n_calls=SOAK_KW["n_calls"], seed=SEED,
            mos_sample_rate=SOAK_KW["mos_sample_rate"],
        )).generate()
        start = dt.date(2021, 1, 1)
        corpus = CorpusGenerator(CorpusConfig(
            seed=SEED, span_start=start,
            span_end=start + dt.timedelta(
                days=7 * SOAK_KW["corpus_weeks"] - 1
            ),
        )).generate()
        analyzer = SentimentAnalyzer()
        for row in report.rows:
            injector = FaultPlan(seed=SEED).data_faults(
                f"eps-{row.eps:g}", DataFaultSpec(
                    brigade_fraction=row.eps, fraud_fraction=row.eps,
                    fraud_rating=1, drift_fraction=row.eps / 2,
                ),
            )
            calls = injector.contaminate_calls(dataset).dataset
            posts = injector.contaminate_corpus(corpus).corpus
            raters = score_raters(calls)
            authors = score_authors(posts.posts())
            assert row.mos_naive == robust_mos_records(calls, "mean")
            assert row.mos_trimmed == robust_mos_records(
                calls, "trimmed_mean"
            )
            assert row.mos_mom == robust_mos_records(calls, "median_of_means")
            assert row.mos_trust == robust_mos_records(
                calls, "mean", weights=rated_weights_records(calls, raters)
            )
            assert row.polarity_naive == robust_polarity_records(
                posts, analyzer, "mean"
            )
            assert row.polarity_trust == robust_polarity_records(
                posts, analyzer, "mean",
                weights=post_weights_records(posts, authors),
            )

    def test_boundary_leaked_nothing(self, report):
        assert sum(report.boundary_quarantined.values()) > 0
        assert report.boundary_dropped > 0
        assert "boundary leak" not in " ".join(report.violations)


class TestDeterminism:
    def test_counters_byte_identical_across_runs(self, report):
        import json

        again = run_integrity_soak(seed=SEED, **SOAK_KW)
        assert json.dumps(
            report.counters_dict(), sort_keys=True
        ) == json.dumps(again.counters_dict(), sort_keys=True)

    def test_different_seed_different_counters(self, report):
        other = run_integrity_soak(seed=7, **SOAK_KW)
        assert other.counters_dict() != report.counters_dict()


class TestRendering:
    def test_table_has_one_row_per_eps(self, report):
        lines = report.table().splitlines()
        data_lines = [l for l in lines if l.lstrip()[:1] in "0."]
        assert len(data_lines) >= len(report.eps_grid)

    def test_summary_states_the_verdict(self, report):
        assert "OK" in report.summary()


class TestValidation:
    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            run_integrity_soak(eps_grid=(), **SOAK_KW)

    def test_out_of_range_eps_rejected(self):
        with pytest.raises(ConfigError):
            run_integrity_soak(eps_grid=(0.0, 0.7), **SOAK_KW)

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ConfigError):
            run_integrity_soak(eps_grid=(0.2, 0.1), **SOAK_KW)


class TestVerdict:
    def test_holding_sweep_exits_0(self, report):
        assert report.verdict() == Verdict()

    def test_violations_exit_2_with_every_miss_listed(self, report):
        broken = dataclasses.replace(
            report, violations=("a", "b"), ineffective=("c",),
        )
        assert broken.verdict() == Verdict(2, (
            "integrity violation: a",
            "integrity violation: b",
            "sweep ineffective: c",
        ))

    def test_ineffective_sweep_exits_3(self, report):
        broken = dataclasses.replace(report, ineffective=("c",))
        assert broken.verdict() == Verdict(3, ("sweep ineffective: c",))

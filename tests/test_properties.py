"""Cross-module property-based tests (hypothesis).

Each class pins an invariant that must hold for *all* inputs in the
stated domain — the kind of guarantee unit tests with fixed values can't
give.
"""

import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.stats import bin_statistic
from repro.core.timeline import DailySeries
from repro.netsim.mitigation import EffectiveConditions, MitigationStack
from repro.netsim.qoe import QoeModel
from repro.netsim.trace import ConditionSample
from repro.nlp.keywords import OUTAGE_KEYWORDS
from repro.nlp.sentiment import SentimentAnalyzer
from repro.ocr.engine import OcrEngine
from repro.ocr.render import render_screenshot
from repro.social.schema import PROVIDERS, SpeedTestShare

_sample = st.builds(
    ConditionSample,
    t_s=st.just(0.0),
    latency_ms=st.floats(min_value=0, max_value=500),
    loss_pct=st.floats(min_value=0, max_value=50),
    jitter_ms=st.floats(min_value=0, max_value=40),
    bandwidth_mbps=st.floats(min_value=0.1, max_value=10),
)


class TestMitigationProperties:
    @given(_sample)
    @settings(max_examples=100, deadline=None)
    def test_mitigation_never_worse_than_raw_loss(self, sample):
        """With zero jitter contribution, residual audio loss can never
        exceed the raw loss the network delivered."""
        assume(sample.jitter_ms <= MitigationStack().jitter_buffer_ms)
        eff = MitigationStack().apply(sample, burstiness=0.5)
        assert eff.residual_audio_loss_pct <= sample.loss_pct + 1e-9

    @given(_sample, st.floats(min_value=0, max_value=1))
    @settings(max_examples=100, deadline=None)
    def test_outputs_always_in_domain(self, sample, burstiness):
        eff = MitigationStack().apply(sample, burstiness=burstiness)
        assert 0 <= eff.residual_audio_loss_pct <= 100
        assert 0 <= eff.residual_video_loss_pct <= 100
        assert 0 <= eff.video_bitrate_share <= 1
        assert 0 <= eff.audio_bitrate_share <= 1
        assert eff.delay_ms >= sample.latency_ms

    @given(
        st.floats(min_value=0, max_value=20),
        st.floats(min_value=0, max_value=20),
    )
    @settings(max_examples=80, deadline=None)
    def test_more_loss_never_less_residual(self, loss_a, loss_b):
        low, high = sorted([loss_a, loss_b])
        stack = MitigationStack()
        eff_low = stack.apply(
            ConditionSample(t_s=0, latency_ms=20, loss_pct=low,
                            jitter_ms=2, bandwidth_mbps=3), 0.3)
        eff_high = stack.apply(
            ConditionSample(t_s=0, latency_ms=20, loss_pct=high,
                            jitter_ms=2, bandwidth_mbps=3), 0.3)
        assert eff_high.residual_audio_loss_pct >= (
            eff_low.residual_audio_loss_pct - 1e-9
        )


class TestQoeProperties:
    @given(
        st.floats(min_value=0, max_value=600),
        st.floats(min_value=0, max_value=600),
    )
    @settings(max_examples=80, deadline=None)
    def test_more_delay_never_better(self, delay_a, delay_b):
        low, high = sorted([delay_a, delay_b])
        model = QoeModel()

        def eff(delay):
            return EffectiveConditions(
                delay_ms=delay, residual_audio_loss_pct=0,
                residual_video_loss_pct=0, video_bitrate_share=1,
                audio_bitrate_share=1,
            )

        assert model.audio_mos(eff(high)) <= model.audio_mos(eff(low)) + 1e-9
        assert model.interactivity(eff(high)) <= (
            model.interactivity(eff(low)) + 1e-9
        )

    @given(_sample, st.floats(min_value=0, max_value=1))
    @settings(max_examples=80, deadline=None)
    def test_scores_always_valid(self, sample, burstiness):
        eff = MitigationStack().apply(sample, burstiness=burstiness)
        scores = QoeModel().score(eff)
        assert 1 <= scores.audio_mos <= 5
        assert 1 <= scores.video_mos <= 5
        assert 0 <= scores.interactivity <= 1
        assert 1 <= scores.overall_mos <= 5


class TestStatsProperties:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=10),
                st.floats(min_value=-50, max_value=50),
            ),
            min_size=1, max_size=60,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_bin_means_bounded_by_inputs(self, pairs):
        keys = [p[0] for p in pairs]
        values = [p[1] for p in pairs]
        curve = bin_statistic(keys, values, np.linspace(0, 10, 5))
        finite = curve.stat[~np.isnan(curve.stat)]
        if len(finite):
            assert finite.min() >= min(values) - 1e-9
            assert finite.max() <= max(values) + 1e-9

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=10),
                st.floats(min_value=-50, max_value=50),
            ),
            min_size=1, max_size=60,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_total_count_conserved(self, pairs):
        keys = [p[0] for p in pairs]
        values = [p[1] for p in pairs]
        curve = bin_statistic(keys, values, np.linspace(0, 10, 5))
        assert curve.counts.sum() == len(pairs)  # all keys in [0, 10]


class TestTimelineProperties:
    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=90),
            st.floats(min_value=0, max_value=1000),
            max_size=40,
        ),
        st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_top_peaks_sorted_and_separated(self, day_values, k):
        start = dt.date(2022, 1, 1)
        series = DailySeries.zeros(start, start + dt.timedelta(days=90))
        for offset, value in day_values.items():
            series[start + dt.timedelta(days=offset)] = value
        peaks = series.top_peaks(k, min_separation_days=7)
        values = [v for _, v in peaks]
        assert values == sorted(values, reverse=True)
        days = [d for d, _ in peaks]
        for i, a in enumerate(days):
            for b in days[i + 1:]:
                assert abs((a - b).days) >= 7


class TestSentimentProperties:
    @given(st.text(alphabet=st.characters(whitelist_categories=("L", "Zs")),
                   max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_repeating_text_preserves_polarity_sign(self, text):
        analyzer = SentimentAnalyzer()
        single = analyzer.score(text)
        double = analyzer.score(text + ". " + text)
        if single.polarity > 0.05:
            assert double.polarity > 0
        elif single.polarity < -0.05:
            assert double.polarity < 0

    @given(st.text(max_size=150))
    @settings(max_examples=60, deadline=None)
    def test_keyword_counts_superadditive_under_concat(self, text):
        one = OUTAGE_KEYWORDS.count_matches(text)
        two = OUTAGE_KEYWORDS.count_matches(text + "\n" + text)
        assert two >= one


class TestOcrProperties:
    @given(
        st.sampled_from(PROVIDERS),
        st.floats(min_value=5, max_value=350),
        st.floats(min_value=1, max_value=40),
        st.floats(min_value=15, max_value=150),
    )
    @settings(max_examples=60, deadline=None)
    def test_clean_roundtrip_exact(self, provider, dl, ul, lat):
        # Physical for Starlink; the engine enforces it on the rounded
        # values the screenshot shows.
        assume(round(dl, 1) > round(ul, 1))
        share = SpeedTestShare(
            provider=provider,
            download_mbps=round(dl, 1),
            upload_mbps=round(ul, 1),
            latency_ms=round(lat),
        )
        report = OcrEngine().extract(render_screenshot(share))
        assert report.provider == provider
        assert report.download_mbps == pytest.approx(share.download_mbps)

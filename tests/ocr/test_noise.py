"""Tests for the OCR noise model."""

import pytest

from repro.errors import ConfigError
from repro.ocr.noise import CONFUSIONS, NoiseModel
from repro.ocr.render import render_screenshot
from repro.rng import derive
from repro.social.schema import SpeedTestShare

#: A bad photo, for the robustness tests.
HARSH = NoiseModel(confusion_rate=0.12, dropout_rate=0.05, token_loss_rate=0.08)


def shot():
    return render_screenshot(
        SpeedTestShare(provider="ookla", download_mbps=105.5,
                       upload_mbps=12.1, latency_ms=38)
    )


class TestNoiseModel:
    def test_clean_is_identity(self, fresh_rng):
        original = shot()
        noisy = NoiseModel.clean().apply(fresh_rng, original)
        assert [t.text for t in noisy.tokens] == [t.text for t in original.tokens]

    def test_harsh_corrupts_something(self):
        rng = derive(61, "noise")
        original = shot()
        noisy = HARSH.apply(rng, original)
        assert [t.text for t in noisy.tokens] != [t.text for t in original.tokens]

    def test_confusions_are_visually_plausible(self):
        for a, b in CONFUSIONS.items():
            assert a != b
            # Confusions must be (at least one-way) reversible pairs.
            assert b in CONFUSIONS or b.upper() in CONFUSIONS or b.lower() in CONFUSIONS

    def test_token_loss_removes_tokens(self):
        rng = derive(62, "noise")
        model = NoiseModel(confusion_rate=0, dropout_rate=0, token_loss_rate=0.5)
        noisy = model.apply(rng, shot())
        assert len(noisy.tokens) < len(shot().tokens)

    def test_positions_preserved(self, fresh_rng):
        model = NoiseModel(confusion_rate=0.5, dropout_rate=0, token_loss_rate=0)
        original = shot()
        noisy = model.apply(fresh_rng, original)
        for a, b in zip(original.tokens, noisy.tokens):
            assert (a.x, a.y, a.size) == (b.x, b.y, b.size)

    def test_rejects_bad_rates(self):
        with pytest.raises(ConfigError):
            NoiseModel(confusion_rate=2.0)
        with pytest.raises(ConfigError):
            NoiseModel(small_font_penalty=0.5)

    def test_deterministic_given_stream(self):
        a = HARSH.apply(derive(63, "n"), shot())
        b = HARSH.apply(derive(63, "n"), shot())
        assert [t.text for t in a.tokens] == [t.text for t in b.tokens]

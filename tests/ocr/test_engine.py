"""Tests for the OCR extraction engine."""

import numpy as np
import pytest

from repro.errors import ExtractionError
from repro.ocr.engine import OcrEngine, _repair_number
from repro.ocr.noise import NoiseModel
from repro.ocr.render import PlacedToken, Screenshot, render_screenshot
from repro.rng import derive
from repro.social.reports import sample_speed_test
from repro.social.schema import PROVIDERS, SpeedTestShare
from tests.ocr.test_noise import HARSH


def share(provider="ookla", dl=112.4, ul=14.2, lat=38):
    return SpeedTestShare(provider=provider, download_mbps=dl,
                          upload_mbps=ul, latency_ms=lat)


class TestRepairNumber:
    @pytest.mark.parametrize("text,value", [
        ("112", 112.0),
        ("112.4", 112.4),
        ("1l2", 112.0),      # l -> 1
        ("1O5", 105.0),      # O -> 0
        ("9B", 98.0),        # B -> 8
        ("12,5", 12.5),      # comma -> point
    ])
    def test_repairs(self, text, value):
        assert _repair_number(text) == value

    @pytest.mark.parametrize("text", ["Mbps", "DOWNLOAD", "", "1.2.3"])
    def test_unrepairable(self, text):
        assert _repair_number(text) is None


class TestCleanExtraction:
    @pytest.mark.parametrize("provider", PROVIDERS)
    def test_exact_on_clean_screenshots(self, provider):
        engine = OcrEngine()
        truth = share(provider=provider)
        report = engine.extract(render_screenshot(truth))
        assert report.provider == provider
        assert report.download_mbps == pytest.approx(truth.download_mbps)
        assert report.upload_mbps == pytest.approx(truth.upload_mbps)
        assert report.latency_ms == pytest.approx(truth.latency_ms)
        assert report.confidence > 0.8

    def test_empty_screenshot_raises(self):
        with pytest.raises(ExtractionError):
            OcrEngine().extract(Screenshot(width=100, height=100, tokens=()))

    def test_no_numbers_raises(self):
        shot = Screenshot(
            width=100, height=100,
            tokens=(PlacedToken("DOWNLOAD", 0, 0), PlacedToken("Mbps", 50, 0)),
        )
        with pytest.raises(ExtractionError):
            OcrEngine().extract(shot)


class TestNoisyExtraction:
    def test_default_noise_mostly_recoverable(self):
        rng = derive(71, "ocr")
        engine, noise = OcrEngine(), NoiseModel()
        recovered = exact = 0
        n = 300
        for _ in range(n):
            truth = sample_speed_test(rng, 70.0)
            noisy = noise.apply(rng, render_screenshot(truth))
            try:
                report = engine.extract(noisy)
            except ExtractionError:
                continue
            recovered += 1
            if report.download_mbps == pytest.approx(truth.download_mbps):
                exact += 1
        assert recovered / n > 0.8
        assert exact / recovered > 0.8

    def test_harsh_noise_degrades_but_does_not_crash(self):
        rng = derive(72, "ocr")
        engine, noise = OcrEngine(), HARSH
        outcomes = []
        for _ in range(150):
            truth = sample_speed_test(rng, 70.0)
            noisy = noise.apply(rng, render_screenshot(truth))
            try:
                outcomes.append(engine.extract(noisy))
            except ExtractionError:
                outcomes.append(None)
        success = sum(1 for o in outcomes if o is not None)
        assert 0 < success < 150  # some succeed, some legitimately fail

    def test_confidence_lower_with_repairs(self):
        engine = OcrEngine()
        clean_report = engine.extract(render_screenshot(share()))
        corrupted = Screenshot(
            width=360, height=220,
            tokens=tuple(
                PlacedToken(
                    t.text.replace("1", "l"), t.x, t.y, t.size
                )
                for t in render_screenshot(share()).tokens
            ),
        )
        noisy_report = engine.extract(corrupted)
        assert noisy_report.confidence <= clean_report.confidence

    def test_missing_upload_reported_as_none(self):
        base = render_screenshot(share())
        tokens = tuple(
            t for t in base.tokens if t.text not in ("UPLOAD", "14.2")
        )
        report = OcrEngine().extract(
            Screenshot(width=360, height=220, tokens=tokens)
        )
        assert report.download_mbps is not None
        assert report.upload_mbps is None

    def test_fast_headline_fallback(self):
        """Fast's download has no label; the big-font fallback finds it."""
        truth = share(provider="fast", dl=95.0)
        base = render_screenshot(truth)
        report = OcrEngine().extract(base)
        assert report.download_mbps == pytest.approx(95.0)

    def test_implausible_values_rejected(self):
        """A 5000 Mbps 'download' must not be taken at face value."""
        tokens = (
            PlacedToken("SPEEDTEST", 120, 20, size=18),
            PlacedToken("DOWNLOAD", 40, 130), PlacedToken("Mbps", 130, 130),
            PlacedToken("5000", 50, 160, size=28),
        )
        with pytest.raises(ExtractionError):
            OcrEngine().extract(Screenshot(width=360, height=220, tokens=tokens))

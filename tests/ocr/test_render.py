"""Tests for screenshot rendering."""

import pytest

from repro.errors import ExtractionError
from repro.ocr.render import PlacedToken, Screenshot, render_screenshot
from repro.social.schema import PROVIDERS, SpeedTestShare


def share(provider="ookla", dl=112.4, ul=14.2, lat=38):
    return SpeedTestShare(provider=provider, download_mbps=dl,
                          upload_mbps=ul, latency_ms=lat)


class TestPlacedToken:
    def test_rejects_empty_text(self):
        with pytest.raises(ExtractionError):
            PlacedToken(text="", x=0, y=0)

    def test_rejects_negative_position(self):
        with pytest.raises(ExtractionError):
            PlacedToken(text="x", x=-1, y=0)


class TestRenderScreenshot:
    @pytest.mark.parametrize("provider", PROVIDERS)
    def test_all_providers_render(self, provider):
        shot = render_screenshot(share(provider=provider))
        assert len(shot.tokens) > 5
        joined = " ".join(t.text for t in shot.tokens)
        assert "112.4" in joined or "112.4Mbps" in joined

    def test_integer_values_formatted_without_decimal(self):
        shot = render_screenshot(share(dl=100.0))
        joined = " ".join(t.text for t in shot.tokens)
        assert "100" in joined and "100.0" not in joined

    def test_provider_logos_distinct(self):
        logos = {}
        for provider in PROVIDERS:
            shot = render_screenshot(share(provider=provider))
            logos[provider] = shot.tokens[0].text
        assert len(set(logos.values())) == len(PROVIDERS)

    def test_reading_order_top_to_bottom(self):
        shot = render_screenshot(share())
        ys = [t.y for t in shot.reading_order()]
        assert ys == sorted(ys) or all(
            ys[i] // 8 <= ys[i + 1] // 8 for i in range(len(ys) - 1)
        )

    def test_fast_headline_is_biggest_token(self):
        shot = render_screenshot(share(provider="fast"))
        biggest = max(shot.tokens, key=lambda t: t.size)
        assert biggest.text == "112.4"

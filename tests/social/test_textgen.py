"""Tests for template text generation."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.nlp.sentiment import SentimentAnalyzer
from repro.rng import derive
from repro.social.textgen import (
    TextGenerator,
    _TEMPLATES,
    band_for,
    compile_template,
    outage_comment,
    render_template,
)


class TestBandFor:
    @pytest.mark.parametrize("sentiment,band", [
        (-0.9, "strong_neg"),
        (-0.3, "mild_neg"),
        (0.0, "neutral"),
        (0.3, "mild_pos"),
        (0.9, "strong_pos"),
    ])
    def test_mapping(self, sentiment, band):
        assert band_for(sentiment) == band

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigError):
            band_for(2.0)


class TestTextGenerator:
    def test_rejects_unknown_topic(self, fresh_rng):
        with pytest.raises(ConfigError):
            TextGenerator().generate(fresh_rng, "memes", 0.0)

    def test_all_topics_all_bands_render(self, fresh_rng):
        gen = TextGenerator()
        topics = ("experience_report", "speed_test_share", "outage_report",
                  "question", "setup_story", "event_reaction", "roaming")
        for topic in topics:
            for sentiment in (-0.9, -0.3, 0.0, 0.3, 0.9):
                title, body = gen.generate(
                    fresh_rng, topic, sentiment,
                    vocabulary=("roaming",),
                    context={"dl": 80, "ul": 10, "lat": 40,
                             "provider": "Ookla", "country": "US"},
                )
                assert title and body
                assert "{" not in title and "{" not in body

    def test_analyzer_recovers_intended_polarity(self):
        """The generation→analysis inverse problem must be solvable."""
        gen = TextGenerator()
        analyzer = SentimentAnalyzer()
        rng = derive(77, "textgen")
        for target in (-0.9, 0.9):
            polarities = []
            for _ in range(40):
                title, body = gen.generate(rng, "experience_report", target)
                polarities.append(analyzer.score(f"{title}. {body}").polarity)
            mean = np.mean(polarities)
            assert np.sign(mean) == np.sign(target)
            assert abs(mean) > 0.3

    def test_strong_templates_mostly_cross_strong_threshold(self):
        gen = TextGenerator()
        analyzer = SentimentAnalyzer()
        rng = derive(78, "textgen")
        strong = 0
        n = 60
        for _ in range(n):
            title, body = gen.generate(rng, "outage_report", -0.9,
                                       context={"country": "US"})
            if analyzer.score(f"{title}. {body}").is_strong_negative:
                strong += 1
        assert strong / n > 0.6

    def test_speed_context_embedded(self, fresh_rng):
        gen = TextGenerator()
        title, body = gen.generate(
            fresh_rng, "speed_test_share", 0.0,
            context={"dl": 123.4, "ul": 15.5, "lat": 37, "provider": "Ookla"},
        )
        assert "123.4" in f"{title} {body}"

    def test_neutral_band_fallback(self, fresh_rng):
        """question has only neutral templates; any sentiment must work."""
        title, body = TextGenerator().generate(fresh_rng, "question", -0.9)
        assert title and body


class TestOutageComment:
    def test_mentions_country(self, fresh_rng):
        comment = outage_comment(fresh_rng, "NZ")
        assert ("NZ" in comment) or ("down" in comment.lower()
                                     or "offline" in comment.lower()
                                     or "outage" in comment.lower())


class TestCompiledTemplates:
    """compile_template/render_template must be a drop-in for str.format:
    the corpus generator renders every post through the precompiled
    form, so any drift here is a corpus-content bug."""

    def test_every_template_renders_byte_identical_to_format(self):
        slots = {
            "provider": "Ookla", "dl": "44.2", "ul": "3.8", "lat": "37",
            "place": "the kitchen", "pos": "great", "pos2": "superb",
            "mpos": "decent", "neg": "awful", "neg2": "dreadful",
            "mneg": "meh", "feel": "frustrated", "noun": "nightmare",
            "country": "US", "event": "an outage", "vocab": "weekend",
        }
        checked = 0
        for topic, bands in _TEMPLATES.items():
            for band, pairs in bands.items():
                for title, body in pairs:
                    for template in (title, body):
                        parts = compile_template(template)
                        used = {
                            field: slots[field]
                            for _, field in parts if field is not None
                        }
                        assert render_template(parts, used) == \
                            template.format(**used), (topic, band)
                        checked += 1
        assert checked > 50  # the corpus's whole template inventory

    def test_rejects_format_specs_and_conversions(self):
        with pytest.raises(ConfigError):
            compile_template("speed {dl:.1f} down")
        with pytest.raises(ConfigError):
            compile_template("hello {name!r}")

    def test_generator_precompiles_on_init(self):
        gen = TextGenerator()
        for bands in gen._compiled.values():
            for pairs in bands.values():
                for title_parts, body_parts in pairs:
                    assert isinstance(title_parts, tuple)
                    assert isinstance(body_parts, tuple)

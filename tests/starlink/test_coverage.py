"""Tests for the outage process."""

import datetime as dt

import pytest

from repro.errors import ConfigError
from repro.starlink.coverage import HEADLINE_OUTAGES, Outage, OutageProcess


class TestHeadlineOutages:
    def test_the_three_real_dates(self):
        dates = {o.date for o in HEADLINE_OUTAGES}
        assert dates == {
            dt.date(2022, 1, 7),
            dt.date(2022, 4, 22),
            dt.date(2022, 8, 30),
        }

    def test_april_22_not_in_news(self):
        """The paper's key negative result: no press coverage."""
        apr = next(o for o in HEADLINE_OUTAGES if o.date == dt.date(2022, 4, 22))
        assert not apr.in_news
        assert apr.countries_affected == 14  # "Redditors from 14 countries"

    def test_jan_and_aug_in_news(self):
        for day in (dt.date(2022, 1, 7), dt.date(2022, 8, 30)):
            outage = next(o for o in HEADLINE_OUTAGES if o.date == day)
            assert outage.in_news

    def test_all_headline(self):
        assert all(o.is_headline for o in HEADLINE_OUTAGES)


class TestOutageProcess:
    def test_deterministic(self):
        a = OutageProcess(seed=3).generate()
        b = OutageProcess(seed=3).generate()
        assert [(o.date, o.severity) for o in a] == [(o.date, o.severity) for o in b]

    def test_includes_headline_events(self):
        outages = OutageProcess(seed=1).generate()
        dates = {o.date for o in outages}
        assert dt.date(2022, 4, 22) in dates

    def test_transients_frequent_and_small(self):
        outages = OutageProcess(seed=2).generate()
        transients = [o for o in outages if not o.is_headline]
        # ~1.6/week over 104 weeks.
        assert 100 <= len(transients) <= 250
        assert all(o.severity <= 0.1 for o in transients)
        assert all(not o.in_news for o in transients)

    def test_headline_outside_span_excluded(self):
        process = OutageProcess(
            span_start=dt.date(2021, 1, 1),
            span_end=dt.date(2021, 12, 31),
            seed=1,
        )
        outages = process.generate()
        assert all(o.date.year == 2021 for o in outages)
        assert not any(o.is_headline for o in outages)

    def test_rejects_reversed_span(self):
        with pytest.raises(ConfigError):
            OutageProcess(
                span_start=dt.date(2022, 1, 1), span_end=dt.date(2021, 1, 1)
            )

    def test_outage_validation(self):
        with pytest.raises(ConfigError):
            Outage(date=dt.date(2022, 1, 1), duration_h=0, severity=0.5,
                   countries_affected=1, in_news=False, cause="x")
        with pytest.raises(ConfigError):
            Outage(date=dt.date(2022, 1, 1), duration_h=1, severity=0,
                   countries_affected=1, in_news=False, cause="x")

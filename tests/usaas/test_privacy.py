"""Tests for PII scrubbing and aggregation floors."""

import datetime as dt

import pytest

from repro.core.signals import ExplicitSignal, ImplicitSignal, SignalSeries
from repro.core.usaas import UsaasQuery, UsaasService
from repro.core.usaas.privacy import (
    PrivacyGuard,
    is_scrubbed,
    scrub_all,
    scrub_author,
)
from repro.errors import PrivacyError

TS = dt.datetime(2022, 1, 1, 12)


def series_with_users(n):
    return SignalSeries(
        ImplicitSignal(TS, "net", "m", 1.0, user=scrub_author(f"user{i}"))
        for i in range(n)
    )


class TestScrubAuthor:
    def test_deterministic(self):
        assert scrub_author("alice") == scrub_author("alice")

    def test_distinct_users_distinct_hashes(self):
        assert scrub_author("alice") != scrub_author("bob")

    def test_not_reversible_looking(self):
        scrubbed = scrub_author("alice")
        assert "alice" not in scrubbed
        assert is_scrubbed(scrubbed)

    def test_rejects_empty(self):
        with pytest.raises(PrivacyError):
            scrub_author("")
        with pytest.raises(PrivacyError):
            scrub_all(["alice", ""])

    def test_scrub_all_hashes_each_distinct_id_once(self, monkeypatch):
        from repro.core.usaas import privacy

        calls = []
        real = privacy.scrub_author
        monkeypatch.setattr(
            privacy, "scrub_author", lambda i: calls.append(i) or real(i)
        )
        ids = ["alice", "bob", "alice", "carol", "bob"]
        assert scrub_all(ids) == [real(i) for i in ids]
        assert calls == ["alice", "bob", "carol"]
        assert scrub_all([]) == []


class TestPrivacyGuard:
    def test_floor_enforced(self):
        guard = PrivacyGuard(min_users=10)
        with pytest.raises(PrivacyError):
            guard.check(series_with_users(9))
        guard.check(series_with_users(10))  # exactly at the floor is fine

    def test_distinct_users_counted_not_signals(self):
        guard = PrivacyGuard(min_users=2)
        one_user_many_signals = SignalSeries(
            ImplicitSignal(TS, "net", "m", float(i), user=scrub_author("a"))
            for i in range(50)
        )
        with pytest.raises(PrivacyError):
            guard.check(one_user_many_signals)

    def test_assert_scrubbed_catches_raw_ids(self):
        guard = PrivacyGuard()
        raw = SignalSeries([ImplicitSignal(TS, "net", "m", 1.0, user="alice")])
        with pytest.raises(PrivacyError):
            guard.assert_scrubbed(raw)

    def test_assert_scrubbed_passes_clean(self):
        PrivacyGuard().assert_scrubbed(series_with_users(3))

    def test_rejects_bad_floor(self):
        with pytest.raises(PrivacyError):
            PrivacyGuard(min_users=0)


class TestAggregateFloor:
    """Inside an answer, an aggregate below the floor is withheld, not raised."""

    @staticmethod
    def _service(implicit, explicit):
        service = UsaasService()
        service.register_source("telemetry", lambda: SignalSeries(implicit))
        service.register_source("social", lambda: SignalSeries(explicit))
        return service

    def test_window_covering_six_users_withholds_its_levels(self):
        # 20 session users over ten days, but only six in the last two.
        implicit = [
            ImplicitSignal(
                TS + dt.timedelta(days=day, minutes=u), "net", "presence",
                70.0 + u, service="teams", platform="ios",
                user=scrub_author(f"s{u}"),
            )
            for day in range(10) for u in range(20 if day < 8 else 6)
            for _ in range(3)
        ]
        explicit = [
            ExplicitSignal(TS + dt.timedelta(days=day, hours=2), "net",
                           "sentiment_polarity", 0.2, user=scrub_author(f"p{p}"))
            for day in range(10) for p in range(12)
        ]
        service = self._service(implicit, explicit)
        window = dict(start=TS + dt.timedelta(days=8), end=TS + dt.timedelta(days=10))
        query = UsaasQuery(network="net", service="teams", breakdown="platform",
                           implicit_metrics=("presence",), **window)
        report = service.answer(query)  # the pool (6 + 12 users) passes the floor
        assert report.n_implicit == 36
        assert not [i for i in report.insights if i.kind == "level"]
        released = service.answer(UsaasQuery(
            network="net", service="teams", breakdown="platform",
            implicit_metrics=("presence",), min_users=6, **window,
        ))
        levels = [i.statement for i in released.insights if i.kind == "level"]
        assert len(levels) == 2 and "platform=ios" in levels[1]
        whole = service.answer(UsaasQuery(network="net", service="teams",
                                          implicit_metrics=("presence",)))
        assert [i for i in whole.insights if i.kind == "level"]

    def test_worst_day_needs_the_floor_of_authors(self):
        implicit = [
            ImplicitSignal(TS + dt.timedelta(days=day), "net", "presence", 80.0,
                           service="teams", user=scrub_author(f"s{u}"))
            for day in range(6) for u in range(12)
        ]
        crowd = [  # day 2: a dozen authors, mildly negative
            ExplicitSignal(TS + dt.timedelta(days=2, minutes=p), "net",
                           "sentiment_polarity", -0.5, user=scrub_author(f"p{p}"))
            for p in range(12)
        ]
        loner = [  # day 4: one author, furious
            ExplicitSignal(TS + dt.timedelta(days=4, minutes=k), "net",
                           "sentiment_polarity", -0.9, user=scrub_author("loner"))
            for k in range(2)
        ]
        service = self._service(implicit, crowd + loner)
        anomalies = [
            i for i in service.answer(UsaasQuery(network="net")).insights
            if i.kind == "anomaly"
        ]
        assert len(anomalies) == 1
        assert (TS + dt.timedelta(days=2)).date().isoformat() in anomalies[0].statement
        assert anomalies[0].evidence_dict()["polarity"] == -0.5
        floor_one = service.answer(UsaasQuery(network="net", min_users=1))
        worst = [i for i in floor_one.insights if i.kind == "anomaly"][0]
        assert (TS + dt.timedelta(days=4)).date().isoformat() in worst.statement

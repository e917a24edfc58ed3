"""Tests for the telemetry record schema."""

import datetime as dt

import pytest

from repro.errors import SchemaError
from repro.telemetry.schema import CallRecord, ParticipantRecord


def network_agg(latency=20.0):
    return {
        metric: {"mean": latency, "median": latency, "p95": latency}
        for metric in ("latency_ms", "loss_pct", "jitter_ms", "bandwidth_mbps")
    }


def participant(call_id="c1", rating=None, presence=80.0):
    return ParticipantRecord(
        call_id=call_id,
        user_id="u1",
        platform="windows_pc",
        country="US",
        session_duration_s=600.0,
        presence_pct=presence,
        cam_on_pct=50.0,
        mic_on_pct=40.0,
        dropped_early=False,
        network=network_agg(),
        rating=rating,
    )


class TestParticipantRecord:
    def test_valid(self):
        p = participant()
        assert p.metric("latency_ms") == 20.0
        assert p.engagement("presence_pct") == 80.0

    def test_rejects_presence_above_100(self):
        with pytest.raises(SchemaError):
            participant(presence=120.0)

    def test_rejects_bad_rating(self):
        with pytest.raises(SchemaError):
            participant(rating=6)

    def test_accepts_valid_rating(self):
        assert participant(rating=5).rating == 5

    def test_rejects_missing_metric(self):
        agg = network_agg()
        del agg["jitter_ms"]
        with pytest.raises(SchemaError):
            ParticipantRecord(
                call_id="c", user_id="u", platform="p", country="US",
                session_duration_s=1, presence_pct=1, cam_on_pct=1,
                mic_on_pct=1, dropped_early=False, network=agg,
            )

    def test_rejects_missing_stat(self):
        agg = network_agg()
        del agg["loss_pct"]["p95"]
        with pytest.raises(SchemaError):
            ParticipantRecord(
                call_id="c", user_id="u", platform="p", country="US",
                session_duration_s=1, presence_pct=1, cam_on_pct=1,
                mic_on_pct=1, dropped_early=False, network=agg,
            )

    def test_metric_unknown_raises(self):
        with pytest.raises(SchemaError):
            participant().metric("rtt_ms")

    def test_engagement_unknown_raises(self):
        with pytest.raises(SchemaError):
            participant().engagement("smile_pct")


class TestCallRecord:
    def test_valid(self):
        call = CallRecord(
            call_id="c1",
            start=dt.datetime(2022, 3, 1, 10, 0),
            scheduled_duration_s=1800,
            is_enterprise=True,
            participants=[participant(), participant()],
        )
        assert call.size == 2
        assert call.countries == ["US"]

    def test_rejects_mismatched_call_id(self):
        with pytest.raises(SchemaError):
            CallRecord(
                call_id="c1",
                start=dt.datetime(2022, 3, 1, 10, 0),
                scheduled_duration_s=1800,
                is_enterprise=True,
                participants=[participant(call_id="c2")],
            )

    @pytest.mark.parametrize("when,expected", [
        (dt.datetime(2022, 3, 1, 10, 0), True),    # Tuesday 10am
        (dt.datetime(2022, 3, 1, 8, 0), False),    # before 9
        (dt.datetime(2022, 3, 1, 20, 0), False),   # 8pm boundary excluded
        (dt.datetime(2022, 3, 5, 10, 0), False),   # Saturday
    ])
    def test_business_hours(self, when, expected):
        """§3.1's window (weekdays, [9, 20) local), as the cohort applies it."""
        from repro.engagement.cohort import CohortFilter
        from repro.telemetry.store import CallDataset

        call = CallRecord(
            call_id="c", start=when, scheduled_duration_s=600,
            is_enterprise=True, participants=[participant(call_id="c")],
        )
        cohort = CohortFilter(min_participants=1, countries=None)
        assert (len(cohort.apply(CallDataset([call]))) == 1) is expected

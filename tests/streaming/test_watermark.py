"""Watermarks, reorder buffering and dedup: the ordering guarantees."""

import pytest

from repro import rng as rng_mod
from repro.errors import ConfigError, SchemaError
from repro.streaming import (
    DedupFilter,
    ReorderBuffer,
    StreamRecord,
    WatermarkTracker,
)
from repro.streaming.watermark import NO_WATERMARK


def rec(t, metric="latency_ms", value=40.0, key="u0"):
    return StreamRecord(
        event_time_s=t, source="test", metric=metric, value=value, key=key,
    )


def seen(dd, r):
    return dd.seen(r, r.fingerprint)


class TestWatermarkTracker:
    def test_starts_at_no_watermark(self):
        wm = WatermarkTracker(allowed_lateness_s=10.0)
        assert wm.watermark_s == NO_WATERMARK
        assert not wm.is_late(0.0)

    def test_watermark_trails_by_allowed_lateness(self):
        wm = WatermarkTracker(allowed_lateness_s=10.0)
        wm.observe(100.0)
        assert wm.watermark_s == 90.0
        assert wm.is_late(89.9)
        assert not wm.is_late(90.0)  # boundary: exactly-at is on time

    def test_monotonic_under_adversarial_event_times(self):
        """The watermark never regresses, however disordered arrivals are."""
        wm = WatermarkTracker(allowed_lateness_s=5.0)
        stream = rng_mod.derive(13, "test", "watermark")
        last = NO_WATERMARK
        for _ in range(500):
            wm.observe(float(stream.random()) * 1000.0)
            assert wm.watermark_s >= last
            last = wm.watermark_s

    def test_floor_advance_is_monotone_and_counts(self):
        wm = WatermarkTracker(allowed_lateness_s=50.0)
        wm.observe(100.0)
        assert wm.watermark_s == 50.0
        wm.advance_floor(80.0)
        assert wm.watermark_s == 80.0
        wm.advance_floor(60.0)  # lower floor never wins
        assert wm.watermark_s == 80.0

    def test_negative_lateness_rejected(self):
        with pytest.raises(ConfigError):
            WatermarkTracker(allowed_lateness_s=-1.0)

    def test_state_round_trip(self):
        wm = WatermarkTracker(allowed_lateness_s=10.0)
        wm.observe(100.0)
        wm.advance_floor(95.0)
        clone = WatermarkTracker(allowed_lateness_s=10.0)
        clone.load_state(wm.state_dict())
        assert clone.watermark_s == wm.watermark_s
        assert clone.max_event_time_s == wm.max_event_time_s
        assert clone.observed == wm.observed

    def test_state_round_trip_before_first_observation(self):
        wm = WatermarkTracker(allowed_lateness_s=10.0)
        clone = WatermarkTracker(allowed_lateness_s=10.0)
        clone.load_state(wm.state_dict())
        assert clone.watermark_s == NO_WATERMARK


class TestReorderBuffer:
    def test_releases_in_event_time_order(self):
        buf = ReorderBuffer(capacity=16)
        times = [5.0, 1.0, 3.0, 2.0, 4.0]
        pushed = {t: buf.push(rec(t), (f"tag{t}",)) for t in times}
        released = buf.release(3.0)
        assert [r.event_time_s for r, _, _ in released] == [1.0, 2.0, 3.0]
        assert [fp for _, fp, _ in released] == [
            r.fingerprint for r, _, _ in released
        ]
        assert [fp for _, fp, _ in released] == [
            pushed[t] for t in (1.0, 2.0, 3.0)
        ]
        assert [tags for _, _, tags in released] == [
            ("tag1.0",), ("tag2.0",), ("tag3.0",)
        ]
        assert len(buf) == 2

    def test_equal_event_times_release_in_arrival_order(self):
        buf = ReorderBuffer(capacity=16)
        buf.push(rec(1.0, key="first"), ("a",))
        buf.push(rec(1.0, key="second"), ("b",))
        released = buf.release(1.0)
        assert [r.key for r, _, _ in released] == ["first", "second"]
        assert [tags for _, _, tags in released] == [("a",), ("b",)]

    def test_overflow_is_signalled_not_silent(self):
        buf = ReorderBuffer(capacity=2)
        for t in (3.0, 1.0, 2.0):
            buf.push(rec(t), ("reorder",) if t == 1.0 else ())
        assert buf.overflowing
        oldest, fp, tags = buf.pop_oldest()
        assert oldest.event_time_s == 1.0
        assert fp == oldest.fingerprint
        assert tags == ("reorder",)
        assert not buf.overflowing

    def test_due_reports_whether_release_releases(self):
        buf = ReorderBuffer(capacity=4)
        assert not buf.due(10.0)
        buf.push(rec(5.0))
        assert not buf.due(4.9)
        assert buf.due(5.0)

    def test_pop_empty_raises(self):
        with pytest.raises(ConfigError):
            ReorderBuffer(capacity=1).pop_oldest()

    def test_state_round_trip_preserves_order(self):
        buf = ReorderBuffer(capacity=8)
        for t in (5.0, 1.0, 3.0):
            buf.push(rec(t), ("duplicate",) if t == 3.0 else ())
        clone = ReorderBuffer(capacity=8)
        clone.load_state(buf.state_dict())
        assert clone.release(10.0) == buf.release(10.0)

    def test_state_rows_are_positional_and_carry_tags(self):
        buf = ReorderBuffer(capacity=8)
        buf.push(rec(3.0, metric="mos", value=4.5, key="u3"), ("skew",))
        buf.push(rec(1.0))
        assert buf.state_dict() == {
            "arrivals": 2,
            "entries": [
                [1.0, 1, "test", "latency_ms", 40.0, "u0", "network", []],
                [3.0, 0, "test", "mos", 4.5, "u3", "network", ["skew"]],
            ],
        }


class TestDedupFilter:
    def test_duplicate_detected_distinct_passed(self):
        dd = DedupFilter()
        a, b = rec(1.0, key="u1"), rec(1.0, key="u2")
        assert not seen(dd, a)
        assert seen(dd, a)
        assert not seen(dd, b)  # same instant, different key

    def test_same_fields_same_fingerprint(self):
        dd = DedupFilter()
        assert not seen(dd, rec(1.0))
        assert seen(dd, rec(1.0))  # a distinct but identical object

    def test_eviction_bounds_memory(self):
        dd = DedupFilter()
        for t in range(100):
            seen(dd, rec(float(t)))
        dropped = dd.evict(watermark_s=95.0)
        assert dropped == dd.evicted == 95
        assert len(dd) == 100 - dropped
        # entries at or above the watermark are kept ...
        assert seen(dd, rec(95.0))
        assert seen(dd, rec(99.0))
        # ... and older ones are forgotten: any copy of them is late
        # before it reaches dedup.
        assert not seen(dd, rec(94.0))

    def test_state_round_trip(self):
        dd = DedupFilter()
        seen(dd, rec(1.0))
        seen(dd, rec(2.0))
        clone = DedupFilter()
        clone.load_state(dd.state_dict())
        assert seen(clone, rec(1.0))
        assert not seen(clone, rec(3.0))


class TestStreamRecord:
    def test_validation(self):
        with pytest.raises(Exception):
            StreamRecord(event_time_s=-1.0, source="s", metric="m", value=1.0)
        with pytest.raises(Exception):
            StreamRecord(event_time_s=0.0, source="", metric="m", value=1.0)
        with pytest.raises(Exception):
            StreamRecord(
                event_time_s=0.0, source="s", metric="m", value=1.0,
                role="nonsense",
            )

    @pytest.mark.parametrize("field", ["event_time_s", "value"])
    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), float("-inf")]
    )
    def test_non_finite_time_or_value_rejected(self, field, bad):
        fields = dict(event_time_s=1.0, source="s", metric="m", value=1.0)
        fields[field] = bad
        with pytest.raises(SchemaError):
            StreamRecord(**fields)

    def test_round_trip(self):
        r = rec(3.5, metric="mos", value=4.25, key="u7")
        assert StreamRecord.from_dict(r.to_dict()) == r
        assert StreamRecord.from_dict(r.to_dict()).fingerprint == r.fingerprint

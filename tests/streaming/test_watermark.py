"""Watermarks, reorder buffering and dedup: the ordering guarantees."""

import pytest

from repro import rng as rng_mod
from repro.errors import ConfigError, SchemaError
from repro.resilience.clock import ManualClock
from repro.streaming import (
    DedupFilter,
    ReorderBuffer,
    StreamConfig,
    StreamPipeline,
    StreamRecord,
    WatermarkTracker,
)
from repro.streaming import records as records_mod
from repro.streaming.watermark import NO_WATERMARK


def rec(t, metric="latency_ms", value=40.0, key="u0"):
    return StreamRecord(
        event_time_s=t, source="test", metric=metric, value=value, key=key,
    )


def seen(dd, r):
    return dd.seen(r)


def refuse_fingerprints(monkeypatch):
    """Make any SHA-256 fingerprint computation fail the test."""
    def refuse(*args):
        raise AssertionError(f"fingerprint computed for {args}")

    monkeypatch.setattr(records_mod, "record_fingerprint", refuse)


class TestWatermarkTracker:
    def test_starts_at_no_watermark(self):
        wm = WatermarkTracker(allowed_lateness_s=10.0)
        assert wm.watermark_s == NO_WATERMARK

    def test_watermark_trails_by_allowed_lateness(self):
        wm = WatermarkTracker(allowed_lateness_s=10.0)
        wm.observe(100.0)
        assert wm.watermark_s == 90.0

    def test_pipeline_drops_only_below_the_watermark(self):
        """Boundary: a record exactly at the watermark is on time."""
        pipeline = StreamPipeline(
            StreamConfig(allowed_lateness_s=10.0), clock=ManualClock()
        )
        for t in (100.0, 90.0, 89.9):
            pipeline.ingest(StreamRecord(
                event_time_s=t, source="s", metric="m", value=1.0,
                key=str(t),
            ))
        assert pipeline.counters.late_dropped == 1

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
    def test_releases_in_event_time_order(self, monkeypatch):
        """Deliveries leave as ``(record, tags)`` in event-time order;
        nothing in the buffer, its checkpoint or its restore hashes."""
        refuse_fingerprints(monkeypatch)
        buf = ReorderBuffer(capacity=16)
        times = [5.0, 1.0, 3.0, 2.0, 4.0]
        records = {t: rec(t) for t in times}
        for t in times:
            buf.push(records[t], (f"tag{t}",))
        clone = ReorderBuffer(capacity=16)
        clone.load_state(buf.state_dict())
        released = buf.release(3.0)
        assert [r for r, _ in released] == [
            records[t] for t in (1.0, 2.0, 3.0)
        ]
        assert [tags for _, tags in released] == [
            ("tag1.0",), ("tag2.0",), ("tag3.0",)
        ]
        assert len(buf) == 2
        assert clone.release(3.0) == released

    def test_equal_event_times_release_in_arrival_order(self):
        buf = ReorderBuffer(capacity=16)
        buf.push(rec(1.0, key="first"), ("a",))
        buf.push(rec(1.0, key="second"), ("b",))
        released = buf.release(1.0)
        assert [r.key for r, _ in released] == ["first", "second"]
        assert [tags for _, tags in released] == [("a",), ("b",)]

    def test_overflow_is_signalled_not_silent(self, monkeypatch):
        refuse_fingerprints(monkeypatch)
        buf = ReorderBuffer(capacity=2)
        for t in (3.0, 1.0, 2.0):
            buf.push(rec(t), ("reorder",) if t == 1.0 else ())
        assert buf.overflowing
        oldest, tags = buf.pop_oldest()
        assert oldest == rec(1.0)
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

    def test_table_is_written_as_fingerprints(self):
        dd = DedupFilter()
        records = [rec(1.0), rec(1.0, key="u1"), rec(2.0, value=0.0)]
        for r in records:
            seen(dd, r)
        assert dd.state_dict() == {
            "entries": [[r.event_time_s, r.fingerprint] for r in records],
            "evicted": 0,
        }

    def test_restored_entries_catch_duplicates_until_evicted(self):
        dd = DedupFilter()
        seen(dd, rec(1.0))
        seen(dd, rec(2.0))
        clone = DedupFilter()
        clone.load_state(dd.state_dict())
        assert not seen(clone, rec(2.0, key="u1"))
        assert seen(clone, rec(2.0))
        assert seen(clone, rec(2.0, key="u1"))
        # The table is written back entry for entry, restored or not.
        assert clone.state_dict()["entries"] == [
            [1.0, rec(1.0).fingerprint],
            [2.0, rec(2.0).fingerprint],
            [2.0, rec(2.0, key="u1").fingerprint],
        ]
        assert clone.evict(watermark_s=2.0) == 1
        assert seen(clone, rec(2.0))
        assert clone.evict(watermark_s=3.0) == 2
        assert len(clone) == 0

    def test_zero_and_negative_zero_are_distinct(self):
        """``0.0 == -0.0``, but their fingerprints differ, so neither is
        a duplicate of the other."""
        dd = DedupFilter()
        for r in (
            rec(0.0, value=0.0), rec(0.0, value=-0.0),
            rec(-0.0, value=0.0), rec(-0.0, value=-0.0),
        ):
            assert not seen(dd, r)
            assert seen(dd, r)
        assert len(dd) == 4

    def test_separators_inside_fields_do_not_collide(self):
        a = StreamRecord(10.0, "a:b", "c", 1.0, key="k")
        b = StreamRecord(10.0, "a", "b:c", 1.0, key="k")
        assert a.fingerprint != b.fingerprint
        dd = DedupFilter()
        assert not seen(dd, a)
        assert not seen(dd, b)


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
        "bad", [float("nan"), float("inf"), float("-inf"), "5", None, True]
    )
    def test_non_finite_time_or_value_rejected(self, field, bad):
        fields = dict(event_time_s=1.0, source="s", metric="m", value=1.0)
        fields[field] = bad
        with pytest.raises(SchemaError):
            StreamRecord(**fields)

    @pytest.mark.parametrize("field", ["source", "metric", "key"])
    def test_non_string_fields_rejected(self, field):
        """Dedup keys on the fields and the fingerprint on their text,
        so ``5`` and ``"5"`` would agree in one and not the other."""
        fields = dict(
            event_time_s=1.0, source="s", metric="m", value=1.0, key="k",
        )
        fields[field] = 5
        with pytest.raises(SchemaError):
            StreamRecord(**fields)

    def test_round_trip(self):
        r = rec(3.5, metric="mos", value=4.25, key="u7")
        assert StreamRecord.from_dict(r.to_dict()) == r
        assert StreamRecord.from_dict(r.to_dict()).fingerprint == r.fingerprint

    def test_int_fields_round_trip_with_their_fingerprint(self):
        r = StreamRecord(event_time_s=5, source="s", metric="m", value=1)
        assert type(r.event_time_s) is float and type(r.value) is float
        back = StreamRecord.from_dict(r.to_dict())
        assert back == r
        assert back.fingerprint == r.fingerprint

    def test_frozen_copyable_and_picklable(self):
        import copy
        import dataclasses
        import pickle

        r = rec(3.5, metric="mos", value=4.25, key="u7")
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.value = 1.0
        assert copy.copy(r) == r
        assert pickle.loads(pickle.dumps(r)) == r
        assert repr(r) == (
            "StreamRecord(event_time_s=3.5, source='test', metric='mos', "
            "value=4.25, key='u7', role='network')"
        )

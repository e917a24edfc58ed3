"""OnlineTrustGate and the stream-boundary parser."""

import json

import pytest

from repro.errors import ConfigError
from repro.integrity import OnlineTrustGate, parse_stream_dicts
from repro.integrity.online import BOUNDARY_REASONS
from repro.rng import derive
from repro.streaming.records import StreamRecord


def _record(t, source="telemetry", metric="latency_ms", value=40.0,
            key="u1"):
    return StreamRecord(
        event_time_s=t, source=source, metric=metric, value=value, key=key
    )


class TestBurst:
    def test_flood_quarantined_past_burst_limit(self):
        gate = OnlineTrustGate(window_s=60.0, burst_limit=5,
                               repeat_limit=100)
        verdicts = [
            gate.observe(_record(i * 0.1, value=float(i)))
            for i in range(10)
        ]
        # First burst_limit arrivals pass; everything past it inside
        # the window is quarantined.
        assert verdicts == [False] * 5 + [True] * 5
        assert gate.quarantined == 5
        assert gate.observed == 10

    def test_window_expiry_resets_the_count(self):
        gate = OnlineTrustGate(window_s=10.0, burst_limit=3,
                               repeat_limit=100)
        for i in range(3):
            assert not gate.observe(_record(float(i), value=float(i)))
        # Far enough in the future that the old arrivals left the window.
        assert not gate.observe(_record(100.0, value=99.0))

    def test_keys_are_independent(self):
        gate = OnlineTrustGate(window_s=60.0, burst_limit=2,
                               repeat_limit=100)
        for i in range(2):
            gate.observe(_record(float(i), key="flood", value=float(i)))
        assert gate.observe(_record(2.0, key="flood", value=2.0))
        assert not gate.observe(_record(2.0, key="organic", value=2.0))


class TestDetectLatency:
    def test_flood_detect_latency_pinned(self):
        """Event time from a flood's first record to its first
        quarantine, behind 300 s of organic traffic from 40 keys, on
        seed 20231128.  Seed-derived, so pinned exactly."""
        gate = OnlineTrustGate()
        rng = derive(20231128, "integrity", "perf-detect")
        attack_at = 300.0
        t = 0.0
        while t < attack_at:
            t += float(rng.exponential(0.5))
            gate.observe(StreamRecord(
                event_time_s=t,
                source="app",
                metric="rtt_ms",
                value=round(float(rng.normal(50.0, 5.0)), 3),
                key=f"user-{int(rng.integers(0, 40))}",
            ))
        t = attack_at
        while not gate.observe(StreamRecord(
            event_time_s=t, source="bot", metric="rtt_ms", value=999.0,
            key="flood",
        )):
            t += 0.05
            assert t <= attack_at + 600.0, "flood never quarantined"
        assert t - attack_at == 0.40000000000009095


class TestRepetition:
    def test_identical_payload_run_quarantined(self):
        gate = OnlineTrustGate(burst_limit=1000, repeat_limit=3)
        verdicts = [
            gate.observe(_record(float(i), value=999.0))
            for i in range(5)
        ]
        assert verdicts == [False, False, False, True, True]

    def test_varying_payload_resets_the_run(self):
        gate = OnlineTrustGate(burst_limit=1000, repeat_limit=3)
        for i in range(20):
            assert not gate.observe(
                _record(float(i), value=float(i % 2))
            )


class TestSuspectWindow:
    def test_burst_active_after_enough_quarantines(self):
        gate = OnlineTrustGate(
            burst_limit=1, repeat_limit=100,
            suspect_window_s=50.0, suspect_min_quarantined=3,
        )
        for i in range(10):
            gate.observe(_record(float(i), value=float(i)))
        assert gate.burst_active(10.0)
        # Far past the suspect window nothing recent is quarantined.
        for i in range(3):
            gate.observe(
                _record(200.0 + i, key="other", value=float(i))
            )
        assert not gate.burst_active(200.0)

    def test_quiet_gate_never_suspect(self):
        gate = OnlineTrustGate()
        for i in range(5):
            gate.observe(_record(float(i * 10), value=float(i)))
        assert not gate.burst_active(50.0)


class TestCheckpoint:
    def test_state_roundtrip_is_byte_identical(self):
        gate = OnlineTrustGate(burst_limit=5, repeat_limit=3)
        tail = [
            _record(10.0 + i * 0.1, value=float(i % 2), key=f"k{i % 3}")
            for i in range(30)
        ]
        for r in tail[:15]:
            gate.observe(r)
        resumed = OnlineTrustGate(burst_limit=5, repeat_limit=3)
        resumed.load_state(gate.state_dict())
        straight = [gate.observe(r) for r in tail[15:]]
        replayed = [resumed.observe(r) for r in tail[15:]]
        assert straight == replayed
        assert gate.state_dict() == resumed.state_dict()

    def test_load_tolerates_empty_state(self):
        gate = OnlineTrustGate()
        gate.load_state({})
        assert gate.observed == 0 and gate.quarantined == 0

    def test_state_layout_is_the_joined_key_and_payload_token(self):
        gate = OnlineTrustGate()
        gate.observe(_record(1.0, key="u1", value=-0.0))
        gate.observe(_record(2.0, key="u1", value=-0.0))
        gate.observe(_record(3.0, source="a/b\\", key="c/", value=2.5))
        assert gate.state_dict()["keys"] == [
            ["telemetry/u1", [1.0, 2.0], "latency_ms:-0.0", 2],
            ["a\\/b\\\\/c\\/", [3.0], "latency_ms:2.5", 1],
        ]

    def test_round_trip_keeps_separators_and_signed_zeros(self):
        """Keys holding ``/`` or ``\\`` and a ``-0.0`` payload come back
        from a JSON checkpoint as the same keys and payloads."""
        keys = [("a/b", "c"), ("a", "b/c"), ("a\\", "/"), ("x", "")]
        tail = [
            _record(
                float(i), source=keys[i % 4][0], key=keys[i % 4][1],
                metric="m:1" if i % 5 else "m",
                value=(0.0, -0.0, 1.0)[i % 3],
            )
            for i in range(40)
        ]
        gate = OnlineTrustGate(burst_limit=4, repeat_limit=2)
        for r in tail[:20]:
            gate.observe(r)
        resumed = OnlineTrustGate(burst_limit=4, repeat_limit=2)
        resumed.load_state(json.loads(json.dumps(gate.state_dict())))
        assert resumed.state_dict() == gate.state_dict()
        straight = [gate.observe(r) for r in tail[20:]]
        replayed = [resumed.observe(r) for r in tail[20:]]
        assert straight == replayed
        assert gate.state_dict() == resumed.state_dict()


class TestKeySeparators:
    def test_separator_inside_source_or_key_keeps_units_apart(self):
        """``("a/b", "c")`` and ``("a", "b/c")`` are two units with two
        burst and repeat budgets, not one."""
        gate = OnlineTrustGate(burst_limit=1, repeat_limit=1)
        assert not gate.observe(_record(1.0, source="a/b", key="c"))
        assert not gate.observe(_record(1.0, source="a", key="b/c"))
        assert len(gate.state_dict()["keys"]) == 2

    def test_signed_zeros_are_different_payloads(self):
        gate = OnlineTrustGate(burst_limit=1000, repeat_limit=1)
        assert not gate.observe(_record(1.0, value=0.0))
        assert not gate.observe(_record(2.0, value=-0.0))
        assert gate.observe(_record(3.0, value=-0.0))


class TestLru:
    def test_keys_evicted_beyond_max(self):
        gate = OnlineTrustGate(max_keys=4, burst_limit=1000,
                               repeat_limit=1000)
        for i in range(10):
            gate.observe(_record(float(i), key=f"k{i}", value=float(i)))
        assert len(gate.state_dict()["keys"]) == 4
        # The survivors are the most recently observed keys.
        kept = [entry[0] for entry in gate.state_dict()["keys"]]
        assert kept == [f"telemetry/k{i}" for i in (6, 7, 8, 9)]


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"window_s": 0.0},
        {"suspect_window_s": -1.0},
        {"burst_limit": 0},
        {"repeat_limit": 0},
        {"max_keys": 0},
        {"suspect_min_quarantined": 0},
    ])
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            OnlineTrustGate(**kwargs)


class TestBoundaryParser:
    def _good(self, t=1.0):
        return {
            "event_time_s": t, "source": "telemetry",
            "metric": "latency_ms", "value": 40.0, "key": "u1",
        }

    def test_clean_dicts_all_parse(self):
        report = parse_stream_dicts([self._good(float(i)) for i in range(5)])
        assert len(report.records) == 5
        assert report.n_quarantined == 0

    def test_reason_buckets(self):
        missing = self._good()
        missing.pop("value")
        bad_value = dict(self._good(), value="not-a-number")
        bad_time = dict(self._good(), event_time_s=-5.0)
        no_metric = dict(self._good())
        no_metric.pop("metric")
        report = parse_stream_dicts(
            [self._good(), missing, bad_value, bad_time, no_metric]
        )
        assert len(report.records) == 1
        assert report.quarantined["missing_field"] == 2
        assert report.quarantined["bad_value"] == 1
        assert report.quarantined["bad_event_time"] == 1
        assert report.n_quarantined == 4

    @pytest.mark.parametrize("field, raw, reason", [
        ("event_time_s", "nan", "bad_event_time"),
        ("event_time_s", "inf", "bad_event_time"),
        ("event_time_s", float("inf"), "bad_event_time"),
        ("value", "nan", "bad_value"),
        ("value", "inf", "bad_value"),
        ("value", float("-inf"), "bad_value"),
    ])
    def test_non_finite_fields_are_quarantined(self, field, raw, reason):
        report = parse_stream_dicts(
            [self._good(), dict(self._good(), **{field: raw})]
        )
        assert len(report.records) == 1
        assert report.quarantined[reason] == 1
        assert report.n_quarantined == 1

    @pytest.mark.parametrize("fields, reason", [
        ({"event_time_s": True, "value": "2.5"}, "bad_event_time"),
        ({"event_time_s": "3", "value": False}, "bad_event_time"),
        ({"value": "2.5"}, "bad_value"),
        ({"value": False}, "bad_value"),
        ({"source": 5}, "other"),
        ({"key": 7}, "other"),
        (None, "other"),
    ])
    def test_fields_the_record_refuses_are_quarantined(self, fields, reason):
        """The boundary accepts exactly what ``StreamRecord`` accepts:
        no coercion of a bool or string time or value, or of a
        non-string source or key."""
        entry = None if fields is None else dict(self._good(), **fields)
        report = parse_stream_dicts([self._good(), entry])
        assert len(report.records) == 1
        assert report.quarantined[reason] == 1
        assert report.n_quarantined == 1

    def test_every_bucket_is_a_documented_reason(self):
        report = parse_stream_dicts([])
        assert set(report.quarantined) == set(BOUNDARY_REASONS)

    def test_summary_names_the_counts(self):
        bad = dict(self._good(), value=None)
        report = parse_stream_dicts([self._good(), bad])
        assert "parsed=1" in report.summary()
        assert "quarantined=1" in report.summary()

"""Incremental operators: equivalence with batch recompute, invariance."""

import pytest

from repro import rng as rng_mod
from repro.errors import ConfigError
from repro.streaming import (
    DecayedAggregate,
    SlidingWindowAggregate,
    StreamRecord,
)
from repro.streaming.detector import OnlineChangePointDetector
from repro.streaming.operators import Emission

from tests.streaming.oracle import batch_window_aggregates


def make_records(seed=11, n=400, metrics=("latency_ms", "mos")):
    stream = rng_mod.derive(seed, "test", "operators")
    records = []
    for i in range(n):
        metric = metrics[i % len(metrics)]
        records.append(StreamRecord(
            event_time_s=(i + 1) * 0.7,
            source="test",
            metric=metric,
            value=40.0 + float(stream.standard_normal()),
            key=f"u{i % 5}",
            role="experience" if metric == "mos" else "network",
        ))
    return records


class TestSlidingWindowAggregate:
    def test_matches_batch_recompute_exactly(self):
        """The incremental path equals the full-history recompute."""
        records = make_records()
        op = SlidingWindowAggregate(window_s=30.0, slide_s=10.0)
        emissions = op.process(records, records[-1].event_time_s)
        emissions += op.flush(records[-1].event_time_s)
        got = {(e.metric, e.at_s): (e.value, e.count) for e in emissions}
        want = batch_window_aggregates(records, window_s=30.0, slide_s=10.0)
        assert got == want

    def test_equivalence_under_any_batching(self):
        """Chopping the same stream differently changes nothing."""
        records = make_records(n=200)
        final = records[-1].event_time_s

        def run(cuts):
            op = SlidingWindowAggregate(window_s=30.0, slide_s=10.0)
            out = []
            start = 0
            for stop in cuts + [len(records)]:
                batch = records[start:stop]
                wm = batch[-1].event_time_s if batch else None
                if wm is not None:
                    out += op.process(batch, wm)
                start = stop
            out += op.flush(final)
            return out

        assert run([50, 100, 150]) == run([10, 11, 190]) == run([])

    def test_validation(self):
        with pytest.raises(ConfigError):
            SlidingWindowAggregate(window_s=0.0, slide_s=1.0)
        with pytest.raises(ConfigError):
            SlidingWindowAggregate(window_s=10.0, slide_s=20.0)

    def test_state_round_trip_mid_stream(self):
        records = make_records(n=300)
        op = SlidingWindowAggregate(window_s=30.0, slide_s=10.0)
        head, tail = records[:150], records[150:]
        got = op.process(head, head[-1].event_time_s)
        clone = SlidingWindowAggregate(window_s=30.0, slide_s=10.0)
        clone.load_state(op.state_dict())
        final = records[-1].event_time_s
        got_rest = clone.process(tail, final) + clone.flush(final)
        straight = SlidingWindowAggregate(window_s=30.0, slide_s=10.0)
        want = straight.process(records, final) + straight.flush(final)
        assert got + got_rest == want


class TestDecayedAggregate:
    def test_decay_halves_weight_per_half_life(self):
        op = DecayedAggregate(half_life_s=10.0, sample_every_s=5.0)
        # A watermark before the first grid point folds without sampling.
        assert op.process([
            StreamRecord(
                event_time_s=0.0, source="t", metric="m", value=0.0,
                key="a",
            ),
            StreamRecord(
                event_time_s=10.0, source="t", metric="m", value=3.0,
                key="a",
            ),
        ], watermark_s=0.0) == []
        # weights: 0.5 on the old sample, 1.0 on the new
        assert op.value_at("m", 10.0) == pytest.approx(3.0 / 1.5)

    def test_equivalence_under_any_batching(self):
        records = make_records(n=200)
        final = records[-1].event_time_s

        def run(cuts):
            op = DecayedAggregate(half_life_s=20.0, sample_every_s=7.0)
            out = []
            start = 0
            for stop in cuts + [len(records)]:
                batch = records[start:stop]
                if batch:
                    out += op.process(batch, batch[-1].event_time_s)
                start = stop
            out += op.flush(final)
            return out

        assert run([50, 100, 150]) == run([3, 7, 199]) == run([])

    def test_sample_in_the_past_rejected(self):
        op = DecayedAggregate(half_life_s=10.0, sample_every_s=5.0)
        op.process([StreamRecord(
            event_time_s=10.0, source="t", metric="m", value=1.0, key="a",
        )], watermark_s=0.0)
        with pytest.raises(ConfigError):
            op.value_at("m", 5.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            DecayedAggregate(half_life_s=0.0, sample_every_s=1.0)
        with pytest.raises(ConfigError):
            DecayedAggregate(half_life_s=1.0, sample_every_s=0.0)


class TestOnlineChangePointDetector:
    @staticmethod
    def emissions(values, role="network", metric="latency_ms", step=10.0):
        return [
            Emission(
                at_s=(i + 1) * step, operator="win_mean", metric=metric,
                value=v, count=10, role=role,
            )
            for i, v in enumerate(values)
        ]

    def test_detects_level_shift(self):
        det = OnlineChangePointDetector(
            reference_n=8, test_n=3, z_threshold=4.0, min_gap_s=0.0,
        )
        values = [40.0 + 0.1 * (i % 3) for i in range(10)] + [80.0] * 4
        cps = [
            cp for cp in map(det.on_emission, self.emissions(values))
            if cp is not None
        ]
        assert cps, "a 40 -> 80 shift must fire"
        assert cps[0].z_score > 4.0
        assert cps[0].metric == "latency_ms:win_mean"

    def test_quiet_stream_stays_quiet(self):
        det = OnlineChangePointDetector(reference_n=8, test_n=3)
        values = [40.0 + 0.05 * ((i * 7) % 5) for i in range(60)]
        assert all(
            det.on_emission(e) is None for e in self.emissions(values)
        )

    def test_min_gap_silences_repeat_fire(self):
        det = OnlineChangePointDetector(
            reference_n=8, test_n=3, z_threshold=4.0, min_gap_s=1e9,
        )
        values = [40.0 + 0.1 * (i % 3) for i in range(10)] + [80.0] * 20
        cps = [
            cp for cp in map(det.on_emission, self.emissions(values))
            if cp is not None
        ]
        assert len(cps) == 1

    def test_experience_shift_attributed_to_network_cause(self):
        det = OnlineChangePointDetector(
            reference_n=8, test_n=3, z_threshold=4.0, min_gap_s=0.0,
            attribution_horizon_s=500.0,
        )
        net = [40.0 + 0.1 * (i % 3) for i in range(10)] + [80.0] * 6
        exp = [4.3 + 0.01 * (i % 3) for i in range(12)] + [2.0] * 4
        stream = (
            self.emissions(net, role="network", metric="latency_ms")
            + self.emissions(exp, role="experience", metric="mos")
        )
        cps = [
            cp for cp in map(det.on_emission, stream) if cp is not None
        ]
        exp_cps = [cp for cp in cps if cp.role == "experience"]
        assert exp_cps
        assert exp_cps[0].attributed_to == "latency_ms:win_mean"
        assert exp_cps[0].attributed_at_s is not None

    def test_state_round_trip_continues_identically(self):
        values = [40.0 + 0.1 * (i % 3) for i in range(10)] + [80.0] * 4
        stream = self.emissions(values)
        det = OnlineChangePointDetector(reference_n=8, test_n=3)
        for e in stream[:7]:
            det.on_emission(e)
        clone = OnlineChangePointDetector(reference_n=8, test_n=3)
        clone.load_state(det.state_dict())
        got = [clone.on_emission(e) for e in stream[7:]]
        straight = OnlineChangePointDetector(reference_n=8, test_n=3)
        want = [straight.on_emission(e) for e in stream][7:]
        assert got == want

"""Pipeline accounting, checkpoint/resume, journal, exact-once ledger."""

import hashlib
import json

import pytest

from repro.errors import ConfigError
from repro.integrity import OnlineTrustGate, parse_stream_dicts
from repro.resilience.clock import ManualClock
from repro.resilience.faults import FaultPlan, StreamFaultSpec
from repro.streaming import (
    StreamConfig,
    StreamCounters,
    StreamJournal,
    StreamPipeline,
    StreamRecord,
    synthetic_stream,
)
from repro.streaming import records as records_mod
from repro.streaming.pipeline import BoundedQueue, emissions_digest

SPEC = StreamFaultSpec(
    base_delay_s=2.0,
    reorder_rate=0.3,
    reorder_extra_s=25.0,
    duplicate_rate=0.08,
    duplicate_delay_s=8.0,
)


def deliveries_for(seed, duration_s=240.0, rate_per_s=6.0, spec=SPEC):
    records = synthetic_stream(
        seed=seed, duration_s=duration_s, rate_per_s=rate_per_s,
    )
    return FaultPlan(seed=seed).stream_faults("test", records, spec)


def drive(pipeline, deliveries, start=0):
    for delivery in deliveries[start:]:
        gap = delivery.at_s - pipeline.clock.now()
        if gap > 0:
            pipeline.clock.advance(gap)
        pipeline.ingest(delivery.record)
    return pipeline.finish()


class TestLedger:
    def test_every_delivery_is_accounted_exactly_once(self):
        deliveries = deliveries_for(seed=21)
        result = drive(
            StreamPipeline(StreamConfig(seed=21), clock=ManualClock()),
            deliveries,
        )
        c = result.counters
        assert c["emitted"] == len(deliveries)
        assert c["emitted"] == (
            c["aggregated"] + c["late_dropped"]
            + c["late_side"] + c["deduped"]
        )
        assert c["deduped"] > 0  # the chaos spec guarantees duplicates

    def test_side_channel_policy_keeps_late_records(self):
        config = StreamConfig(
            seed=21, late_policy="side", allowed_lateness_s=5.0,
            dedup_horizon_s=5.0, reorder_capacity=8,
        )
        deliveries = deliveries_for(seed=21)
        pipeline = StreamPipeline(config, clock=ManualClock())
        result = drive(pipeline, deliveries)
        assert result.counters["late_dropped"] == 0
        assert result.counters["late_side"] == len(pipeline.side_channel)
        assert result.counters["late_side"] > 0

    def test_forced_flush_counts_overflow(self):
        config = StreamConfig(
            seed=21, reorder_capacity=4, allowed_lateness_s=60.0,
            dedup_horizon_s=60.0,
        )
        result = drive(
            StreamPipeline(config, clock=ManualClock()),
            deliveries_for(seed=21),
        )
        assert result.counters["forced_flushes"] > 0
        assert result.counters["emitted"] == (
            result.counters["aggregated"] + result.counters["late_dropped"]
            + result.counters["late_side"] + result.counters["deduped"]
        )

    @pytest.mark.parametrize("bad_time", ["nan", "inf"])
    def test_non_finite_event_time_cannot_stall_the_stream(self, bad_time):
        """A NaN time would pin the reorder heap's top forever and an
        infinite one would overflow the final flush; the boundary
        quarantines both, so the in-order records behind them flow."""
        def wire(t, i):
            return {
                "event_time_s": t, "source": "app", "metric": "rtt_ms",
                "value": 40.0 + i % 7, "key": f"u{i % 5}",
            }

        boundary = parse_stream_dicts(
            [wire(bad_time, 0)] + [wire(float(i), i) for i in range(200)]
        )
        assert boundary.quarantined["bad_event_time"] == 1
        pipeline = StreamPipeline(StreamConfig(seed=3), clock=ManualClock())
        for record in boundary.records:
            pipeline.ingest(record)
        result = pipeline.finish()
        assert result.counters["emitted"] == 200
        assert result.counters["aggregated"] == 200

    def test_violation_raises(self):
        counters = StreamCounters(emitted=3, aggregated=2)
        with pytest.raises(ConfigError, match="exact-once ledger"):
            counters.check_exact_once()


def count_hashes(monkeypatch):
    """Count calls to ``record_fingerprint`` and ``hashlib.sha256``."""
    calls = {"record_fingerprint": 0, "sha256": 0}
    fingerprint = records_mod.record_fingerprint
    sha256 = hashlib.sha256

    def counting_fingerprint(*args):
        calls["record_fingerprint"] += 1
        return fingerprint(*args)

    def counting_sha256(*args, **kwargs):
        calls["sha256"] += 1
        return sha256(*args, **kwargs)

    monkeypatch.setattr(records_mod, "record_fingerprint", counting_fingerprint)
    monkeypatch.setattr(hashlib, "sha256", counting_sha256)
    return calls


class TestFingerprintOnlyAtCheckpoints:
    def test_checkpoint_free_ingest_hashes_nothing(self, monkeypatch):
        """Dedup keys on record identity, so ingesting computes no
        fingerprint and no SHA-256 at all, on any path: late, deduped,
        quarantined, forced-flushed or aggregated."""
        deliveries = deliveries_for(seed=21)
        config = StreamConfig(
            seed=21, reorder_capacity=16, allowed_lateness_s=5.0,
            dedup_horizon_s=5.0,
        )
        pipeline = StreamPipeline(
            config, clock=ManualClock(),
            trust_gate=OnlineTrustGate(burst_limit=5, repeat_limit=3),
        )
        calls = count_hashes(monkeypatch)
        for delivery in deliveries:
            gap = delivery.at_s - pipeline.clock.now()
            if gap > 0:
                pipeline.clock.advance(gap)
            pipeline.ingest(delivery.record, tags=delivery.injected)
        pipeline.pump()
        assert calls == {"record_fingerprint": 0, "sha256": 0}
        c = pipeline.finish().counters
        for bucket in (
            "late_dropped", "deduped", "quarantined", "forced_flushes",
        ):
            assert c[bucket] > 0, bucket
        assert calls["record_fingerprint"] == 0

    def test_checkpoint_hashes_at_most_the_dedup_table(
        self, monkeypatch, tmp_path
    ):
        config = StreamConfig(seed=21, checkpoint_every_s=10.0)
        pipeline = StreamPipeline(
            config, clock=ManualClock(), checkpoint_dir=tmp_path,
        )
        calls = count_hashes(monkeypatch)
        checkpoint = pipeline.checkpoint
        per_checkpoint = []

        def counted_checkpoint():
            before = calls["record_fingerprint"]
            table = len(pipeline.dedup)
            epoch = checkpoint()
            per_checkpoint.append(
                (calls["record_fingerprint"] - before, table)
            )
            return epoch

        pipeline.checkpoint = counted_checkpoint
        for delivery in deliveries_for(seed=21):
            gap = delivery.at_s - pipeline.clock.now()
            if gap > 0:
                pipeline.clock.advance(gap)
            pipeline.ingest(delivery.record)
        assert len(per_checkpoint) > 5
        assert any(table for _, table in per_checkpoint)
        for hashed, table in per_checkpoint:
            assert hashed <= table
        assert calls["record_fingerprint"] == sum(
            hashed for hashed, _ in per_checkpoint
        )


class TestDeterminism:
    def test_same_seed_byte_identical(self):
        a = drive(
            StreamPipeline(StreamConfig(seed=5), clock=ManualClock()),
            deliveries_for(seed=5),
        )
        b = drive(
            StreamPipeline(StreamConfig(seed=5), clock=ManualClock()),
            deliveries_for(seed=5),
        )
        assert a.digest == b.digest
        assert a.counters == b.counters
        assert a.change_points == b.change_points

    def test_different_seed_differs(self):
        a = drive(
            StreamPipeline(StreamConfig(seed=5), clock=ManualClock()),
            deliveries_for(seed=5),
        )
        b = drive(
            StreamPipeline(StreamConfig(seed=6), clock=ManualClock()),
            deliveries_for(seed=6),
        )
        assert a.digest != b.digest

    def test_backpressure_batching_does_not_change_results(self):
        """Tiny queues force constant drains; the digest must not move."""
        deliveries = deliveries_for(seed=9)
        roomy = drive(
            StreamPipeline(
                StreamConfig(seed=9, queue_capacity=512),
                clock=ManualClock(),
            ),
            deliveries,
        )
        cramped = drive(
            StreamPipeline(
                StreamConfig(seed=9, queue_capacity=2),
                clock=ManualClock(),
            ),
            deliveries,
        )
        assert cramped.counters["backpressure_waits"] > 0
        assert roomy.digest == cramped.digest
        assert roomy.change_points == cramped.change_points


class TestCheckpointResume:
    def test_crash_resume_converges_byte_identically(self, tmp_path):
        config = StreamConfig(seed=31, checkpoint_every_s=30.0)
        deliveries = deliveries_for(seed=31)

        uninterrupted = drive(
            StreamPipeline(
                config, clock=ManualClock(),
                checkpoint_dir=tmp_path / "a",
            ),
            deliveries,
        )

        # Crash at delivery 60%: drop the pipeline object on the floor,
        # resume from the latest epoch, replay from the cursor.
        crash_at = int(len(deliveries) * 0.6)
        pipeline = StreamPipeline(
            config, clock=ManualClock(), checkpoint_dir=tmp_path / "b",
        )
        for delivery in deliveries[:crash_at]:
            gap = delivery.at_s - pipeline.clock.now()
            if gap > 0:
                pipeline.clock.advance(gap)
            pipeline.ingest(delivery.record)
        resumed, cursor = StreamPipeline.resume(config, tmp_path / "b")
        assert 0 < cursor <= crash_at
        result = drive(resumed, deliveries, start=cursor)

        assert result.digest == uninterrupted.digest
        assert result.emissions == uninterrupted.emissions
        assert result.change_points == uninterrupted.change_points
        assert result.counters["resumes"] == 1
        for key, value in result.counters.items():
            if key != "resumes":
                assert value == uninterrupted.counters[key], key

    def test_int_valued_records_keep_their_identity_across_resume(
        self, tmp_path
    ):
        """A record given int time and value is the same measurement
        after a checkpoint restores it from JSON floats, so its
        redelivery is deduped whether or not the consumer crashed."""
        records = [
            StreamRecord(event_time_s=t, source="s", metric="m", value=v,
                         key="k")
            for t, v in ((1, 5), (2, 6), (3, 7))
        ]
        # (clock_s, record): the third ingest commits an epoch, then the
        # first record is redelivered.
        arrivals = [(0.0, records[0]), (0.0, records[1]), (1.5, records[2]),
                    (2.0, StreamRecord(event_time_s=1, source="s",
                                       metric="m", value=5, key="k"))]
        config = StreamConfig(seed=1, checkpoint_every_s=1.0)

        def run(directory, crash_after=None):
            pipeline = StreamPipeline(
                config, clock=ManualClock(), checkpoint_dir=directory,
            )
            start = 0
            if crash_after is not None:
                for at, record in arrivals[:crash_after]:
                    pipeline.clock.advance(at - pipeline.clock.now())
                    pipeline.ingest(record)
                pipeline, start = StreamPipeline.resume(config, directory)
                assert start == crash_after
            for at, record in arrivals[start:]:
                pipeline.clock.advance(max(0.0, at - pipeline.clock.now()))
                pipeline.ingest(record)
            return pipeline.finish().counters

        straight = run(tmp_path / "a")
        crashed = run(tmp_path / "b", crash_after=3)
        for counters in (straight, crashed):
            assert counters["deduped"] == 1
            assert counters["aggregated"] == 3
        assert crashed["resumes"] == 1

    def test_resume_requires_a_checkpoint(self, tmp_path):
        with pytest.raises(ConfigError, match="no resumable checkpoint"):
            StreamPipeline.resume(StreamConfig(seed=1), tmp_path)

    def test_checkpoint_keyed_on_config_fingerprint(self, tmp_path):
        config = StreamConfig(seed=31, checkpoint_every_s=10.0)
        pipeline = StreamPipeline(
            config, clock=ManualClock(), checkpoint_dir=tmp_path,
        )
        for delivery in deliveries_for(seed=31)[:200]:
            gap = delivery.at_s - pipeline.clock.now()
            if gap > 0:
                pipeline.clock.advance(gap)
            pipeline.ingest(delivery.record)
        assert pipeline.counters.checkpoints > 0
        other = StreamConfig(seed=31, checkpoint_every_s=10.0, window_s=30.0)
        with pytest.raises(ConfigError, match="no resumable checkpoint"):
            StreamPipeline.resume(other, tmp_path)

    def test_resume_truncates_journal_to_checkpoint(self, tmp_path):
        """Crash after emissions were journaled but not checkpointed:
        resume rewrites the journal so nothing is re-emitted twice."""
        config = StreamConfig(seed=31, checkpoint_every_s=30.0)
        deliveries = deliveries_for(seed=31)
        journal_path = tmp_path / "journal.jsonl"

        journal = StreamJournal(journal_path)
        pipeline = StreamPipeline(
            config, clock=ManualClock(),
            checkpoint_dir=tmp_path / "ckpt", journal=journal,
        )
        crash_at = int(len(deliveries) * 0.6)
        for delivery in deliveries[:crash_at]:
            gap = delivery.at_s - pipeline.clock.now()
            if gap > 0:
                pipeline.clock.advance(gap)
            pipeline.ingest(delivery.record)

        journal2 = StreamJournal(journal_path)
        resumed, cursor = StreamPipeline.resume(
            config, tmp_path / "ckpt", journal=journal2,
        )
        result = drive(resumed, deliveries, start=cursor)

        journaled = StreamJournal(journal_path).recover()
        assert tuple(journaled) == result.emissions  # no dupes, no holes

    def test_separators_inside_fields_keep_measurements_apart(self):
        """Two distinct records whose fields join to the same text once
        ``:`` separates them are both aggregated, not one deduped."""
        pipeline = StreamPipeline(StreamConfig(seed=1), clock=ManualClock())
        pipeline.ingest(StreamRecord(10.0, "a:b", "c", 1.0, key="k"))
        pipeline.ingest(StreamRecord(10.0, "a", "b:c", 1.0, key="k"))
        counters = pipeline.finish().counters
        assert counters["aggregated"] == 2
        assert counters["deduped"] == 0

    def test_finished_pipeline_rejects_ingest(self):
        pipeline = StreamPipeline(StreamConfig(seed=1), clock=ManualClock())
        pipeline.ingest(StreamRecord(
            event_time_s=1.0, source="t", metric="m", value=1.0,
        ))
        pipeline.finish()
        with pytest.raises(ConfigError):
            pipeline.ingest(StreamRecord(
                event_time_s=2.0, source="t", metric="m", value=1.0,
            ))


class TestConfigAndQueue:
    def test_config_fingerprint_is_stable_json(self):
        a = StreamConfig(seed=1)
        b = StreamConfig(seed=1)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != StreamConfig(seed=2).fingerprint()

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            StreamConfig(late_policy="teleport")
        with pytest.raises(ConfigError):
            StreamConfig(dedup_horizon_s=1.0, allowed_lateness_s=30.0)
        with pytest.raises(ConfigError):
            StreamConfig(reorder_capacity=0)

    def test_bounded_queue_overflow_is_an_error(self):
        q = BoundedQueue(capacity=2)
        q.push(1)
        q.push(2)
        assert q.full
        with pytest.raises(ConfigError):
            q.push(3)
        assert q.drain() == [1, 2]
        assert len(q) == 0

    def test_emissions_digest_is_order_sensitive(self):
        from repro.streaming.operators import Emission
        a = Emission(
            at_s=1.0, operator="o", metric="m", value=1.0, count=1,
            role="network",
        )
        b = Emission(
            at_s=2.0, operator="o", metric="m", value=2.0, count=1,
            role="network",
        )
        assert emissions_digest([a, b]) != emissions_digest([b, a])

    def test_result_summary_mentions_ledger_fields(self):
        result = drive(
            StreamPipeline(StreamConfig(seed=3), clock=ManualClock()),
            deliveries_for(seed=3, duration_s=120.0),
        )
        text = result.summary()
        assert "emitted=" in text and "digest=" in text
        json.dumps(result.counters)  # counters stay JSON-safe

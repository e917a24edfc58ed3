"""Dedup forgets at the watermark, and no verdict changes.

The late check runs before dedup and rejects every delivery older than
the watermark, so a fingerprint the watermark has passed can never be
matched again.  The property test drives random chaotic streams through
two pipelines, one with the watermark-evicted
:class:`~repro.streaming.DedupFilter` and one with the horizon-bounded
rule it replaced (:class:`tests.streaming.oracle.HorizonDedupFilter`),
and requires the same result from both.
"""

import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.integrity import OnlineTrustGate
from repro.resilience.clock import ManualClock
from repro.resilience.faults import FaultPlan, StreamFaultSpec
from repro.streaming import StreamConfig, StreamPipeline, synthetic_stream
from repro.streaming.pipeline import LATE_POLICIES

from tests.streaming.oracle import HorizonDedupFilter


class HorizonPipeline(StreamPipeline):
    """A pipeline running the old dedup rule (``resume`` builds one too)."""

    def __init__(self, config, **kwargs):
        super().__init__(config, **kwargs)
        self.dedup = HorizonDedupFilter(config.dedup_horizon_s)


def chaotic_deliveries(seed, duration_s, rate_per_s, spec):
    """Two interleaved synthetic streams, so many distinct records share
    an event time, mangled by ``spec``."""
    records = sorted(
        synthetic_stream(seed=seed, duration_s=duration_s, rate_per_s=rate_per_s)
        + synthetic_stream(
            seed=seed + 1, duration_s=duration_s, rate_per_s=rate_per_s / 2,
        ),
        key=lambda r: r.event_time_s,
    )
    return FaultPlan(seed=seed).stream_faults("dedup-rule", records, spec)


def run(cls, config, deliveries, crash_at, checkpoint_dir, gate_kwargs):
    """Drive every delivery, crashing before ``crash_at`` and resuming."""

    def fresh():
        return cls(
            config, clock=ManualClock(), checkpoint_dir=checkpoint_dir,
            trust_gate=OnlineTrustGate(**gate_kwargs),
        )

    pipeline = fresh()
    idx = 0
    crashed = False
    while idx < len(deliveries):
        if idx == crash_at and not crashed:
            crashed = True
            try:
                pipeline, idx = cls.resume(
                    config, checkpoint_dir,
                    trust_gate=OnlineTrustGate(**gate_kwargs),
                )
            except ConfigError:
                pipeline, idx = fresh(), 0
            continue
        delivery = deliveries[idx]
        gap = delivery.at_s - pipeline.clock.now()
        if gap > 0:
            pipeline.clock.advance(gap)
        pipeline.ingest(delivery.record, tags=delivery.injected)
        idx += 1
    return pipeline, pipeline.finish()


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    allowed_lateness_s=st.sampled_from([0.0, 2.0, 5.0, 12.5]),
    extra_horizon_s=st.sampled_from([0.0, 30.0, 120.0]),
    reorder_capacity=st.integers(min_value=2, max_value=40),
    late_policy=st.sampled_from(LATE_POLICIES),
    reorder_rate=st.floats(min_value=0.0, max_value=0.6),
    # StreamFaultSpec refuses reorder faults without a positive extra delay.
    reorder_extra_s=st.floats(min_value=0.5, max_value=20.0),
    duplicate_rate=st.floats(min_value=0.05, max_value=0.5),
    duplicate_delay_s=st.floats(min_value=0.0, max_value=15.0),
    burst_limit=st.integers(min_value=3, max_value=30),
    crash_frac=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=30, deadline=None)
def test_watermark_eviction_matches_horizon_oracle(
    seed, allowed_lateness_s, extra_horizon_s, reorder_capacity,
    late_policy, reorder_rate, reorder_extra_s, duplicate_rate,
    duplicate_delay_s, burst_limit, crash_frac,
):
    config = StreamConfig(
        seed=seed,
        allowed_lateness_s=allowed_lateness_s,
        dedup_horizon_s=allowed_lateness_s + extra_horizon_s,
        reorder_capacity=reorder_capacity,
        late_policy=late_policy,
        queue_capacity=8,
        checkpoint_every_s=20.0,
    )
    spec = StreamFaultSpec(
        base_delay_s=2.0,
        reorder_rate=reorder_rate,
        reorder_extra_s=reorder_extra_s,
        duplicate_rate=duplicate_rate,
        duplicate_delay_s=duplicate_delay_s,
    )
    deliveries = chaotic_deliveries(seed, 90.0, 4.0, spec)
    crash_at = int(crash_frac * (len(deliveries) - 1))
    gate_kwargs = dict(burst_limit=burst_limit, repeat_limit=3)
    outcomes = []
    for cls in (StreamPipeline, HorizonPipeline):
        with tempfile.TemporaryDirectory(prefix="dedup-rule-") as ckpt:
            outcomes.append(run(
                cls, config, deliveries, crash_at, ckpt, gate_kwargs,
            ))
    (new, new_result), (old, old_result) = outcomes
    assert isinstance(old.dedup, HorizonDedupFilter)
    assert new_result.counters == old_result.counters
    assert new.fault_outcomes == old.fault_outcomes
    assert new_result.change_points == old_result.change_points
    assert new_result.digest == old_result.digest
    # The new table never holds more than the old one.
    assert len(new.dedup) <= len(old.dedup)


def test_table_holds_only_the_watermark_instant():
    """On a dense chaotic stream, dedup catches every duplicate copy the
    oracle catches while remembering only fingerprints at or above the
    watermark."""
    spec = StreamFaultSpec(
        base_delay_s=2.0, reorder_rate=0.3, reorder_extra_s=10.0,
        duplicate_rate=0.2, duplicate_delay_s=5.0,
    )
    deliveries = chaotic_deliveries(3, 300.0, 8.0, spec)
    config = StreamConfig(seed=3, reorder_capacity=64)
    sizes = {StreamPipeline: 0, HorizonPipeline: 0}
    deduped = {}
    for cls in sizes:
        pipeline = cls(config, clock=ManualClock())
        for delivery in deliveries:
            pipeline.ingest(delivery.record, tags=delivery.injected)
            sizes[cls] = max(sizes[cls], len(pipeline.dedup))
            if cls is StreamPipeline:
                wm = pipeline.watermark.watermark_s
                entries = pipeline.dedup.state_dict()["entries"]
                assert all(t >= wm for t, _ in entries)
        deduped[cls] = pipeline.finish().counters["deduped"]
    assert deduped[StreamPipeline] == deduped[HorizonPipeline] > 0
    assert sizes[StreamPipeline] * 20 < sizes[HorizonPipeline]

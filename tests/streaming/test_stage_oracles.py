"""The lean per-delivery stages against the per-record stages they replaced.

``StreamPipeline`` keys dedup on record identity and hashes only when
a checkpoint writes the table, the trust gate keeps plain per-key
lists, and the window and decay folds run inline.  The property test
drives random deliveries through it and through a pipeline built from
the reference stages in :mod:`tests.streaming.oracle` (fingerprint-keyed
dedup, the token-comparing gate and the ``on_record`` folds), crashing
and resuming both at the same delivery, and requires the same
counters, fault outcomes, digest, change points and epoch file bytes.

The deliveries carry signed zeros in times and values, repeated
payloads, more (source, key) units than the gate keeps, and records
whose fields hold ``:``, ``/`` or ``\\`` next to the records those
separators would merge them with if they were not escaped.
"""

import hashlib
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.integrity import OnlineTrustGate
from repro.resilience.clock import ManualClock
from repro.resilience.faults import FaultPlan, StreamFaultSpec
from repro.streaming import StreamConfig, StreamPipeline, StreamRecord
from repro.streaming.pipeline import LATE_POLICIES

from tests.streaming.oracle import (
    FingerprintDedupFilter,
    ReferenceDecayedAggregate,
    ReferenceTrustGate,
    ReferenceWindowAggregate,
)

#: (source, metric, key) in pairs.  Unescaped, each pair joins to one
#: fingerprint text (``a:b:c``, ``a:m:x:y``) or one gate key
#: (``a/b/c``); the last pairs hold a ``\\`` or are plain.
SHAPES = (
    ("a", "b:c", "k"), ("a:b", "c", "k"),
    ("a", "m", "x:y"), ("a", "m:x", "y"),
    ("a/b", "m", "c"), ("a", "m", "b/c"),
    ("a\\", "m", "\\/"), ("a", "m\\", "k\\"),
    ("app", "rtt", "u1"), ("app", "rtt", "u2"),
)
VALUES = (0.0, -0.0, 1.0, 2.5)


class ReferencePipeline(StreamPipeline):
    """A pipeline running the reference stages (``resume`` builds one
    too); the trust gate is passed in."""

    def __init__(self, config, **kwargs):
        super().__init__(config, **kwargs)
        self.dedup = FingerprintDedupFilter()
        self.window_op = ReferenceWindowAggregate(
            config.window_s, config.slide_s,
        )
        self.decay_op = ReferenceDecayedAggregate(
            config.half_life_s, config.sample_every_s,
        )


rows_st = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=24),  # event time, 0.5 s steps
        st.booleans(),  # a zero event time is -0.0
        st.integers(min_value=0, max_value=len(SHAPES) - 1),
        st.sampled_from(VALUES),
        st.sampled_from(("network", "experience")),
        # 0: alone; 1: with its twin shape; 2: with its value negated
        # (0.0 becomes -0.0); 3: twice.
        st.integers(min_value=0, max_value=3),
    ),
    min_size=1,
    max_size=100,
)


def build(rows):
    """Event-time-ordered records from drawn rows (echoes included)."""
    records = []
    for step, negative, shape, value, role, echo in rows:
        t = -0.0 if negative and step == 0 else step * 0.5
        source, metric, key = SHAPES[shape]
        records.append(StreamRecord(t, source, metric, value, key, role))
        if echo == 1:
            source, metric, key = SHAPES[shape ^ 1]
        elif echo == 2:
            value = -value
        if echo:
            records.append(
                StreamRecord(t, source, metric, value, key, role)
            )
    records.sort(key=lambda r: r.event_time_s)
    return records


def run(cls, gate_cls, config, deliveries, crash_at, directory, gate_kwargs):
    """Drive every delivery, crashing before ``crash_at`` and resuming."""

    def fresh():
        return cls(
            config, clock=ManualClock(), checkpoint_dir=directory,
            trust_gate=gate_cls(**gate_kwargs),
        )

    pipeline = fresh()
    idx = 0
    crashed = False
    while idx < len(deliveries):
        if idx == crash_at and not crashed:
            crashed = True
            try:
                pipeline, idx = cls.resume(
                    config, directory, trust_gate=gate_cls(**gate_kwargs),
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
    result = pipeline.finish()
    epochs = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(Path(directory).iterdir())
    }
    return pipeline, result, epochs


@given(
    rows=rows_st,
    seed=st.integers(min_value=0, max_value=10_000),
    allowed_lateness_s=st.sampled_from([0.0, 1.0, 4.0]),
    reorder_capacity=st.integers(min_value=2, max_value=12),
    late_policy=st.sampled_from(LATE_POLICIES),
    queue_capacity=st.integers(min_value=1, max_value=6),
    reorder_rate=st.floats(min_value=0.0, max_value=0.6),
    duplicate_rate=st.floats(min_value=0.0, max_value=0.5),
    burst_limit=st.integers(min_value=2, max_value=6),
    repeat_limit=st.integers(min_value=1, max_value=3),
    max_keys=st.integers(min_value=1, max_value=4),
    crash_frac=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=40, deadline=None)
def test_lean_stages_match_the_reference_stages(
    rows, seed, allowed_lateness_s, reorder_capacity, late_policy,
    queue_capacity, reorder_rate, duplicate_rate, burst_limit,
    repeat_limit, max_keys, crash_frac,
):
    records = build(rows)
    spec = StreamFaultSpec(
        base_delay_s=1.0,
        reorder_rate=reorder_rate,
        reorder_extra_s=4.0,
        duplicate_rate=duplicate_rate,
        duplicate_delay_s=2.0,
    )
    deliveries = FaultPlan(seed=seed).stream_faults(
        "stage-oracles", records, spec,
    )
    config = StreamConfig(
        seed=seed,
        allowed_lateness_s=allowed_lateness_s,
        reorder_capacity=reorder_capacity,
        late_policy=late_policy,
        queue_capacity=queue_capacity,
        window_s=4.0,
        slide_s=1.0,
        half_life_s=3.0,
        sample_every_s=1.5,
        checkpoint_every_s=2.0,
        detector_reference_n=3,
        detector_test_n=2,
        detector_z_threshold=1.5,
        detector_min_gap_s=2.0,
    )
    gate_kwargs = dict(
        window_s=5.0, burst_limit=burst_limit, repeat_limit=repeat_limit,
        max_keys=max_keys, suspect_window_s=5.0, suspect_min_quarantined=1,
    )
    crash_at = int(crash_frac * (len(deliveries) - 1))
    outcomes = []
    for cls, gate_cls in (
        (StreamPipeline, OnlineTrustGate),
        (ReferencePipeline, ReferenceTrustGate),
    ):
        with tempfile.TemporaryDirectory(prefix="stage-oracles-") as ckpt:
            outcomes.append(run(
                cls, gate_cls, config, deliveries, crash_at, ckpt,
                gate_kwargs,
            ))
    (lean, lean_result, lean_epochs), (ref, ref_result, ref_epochs) = (
        outcomes
    )
    assert isinstance(ref.dedup, FingerprintDedupFilter)
    assert lean_result.counters == ref_result.counters
    assert lean.fault_outcomes == ref.fault_outcomes
    assert lean_result.digest == ref_result.digest
    assert lean_result.change_points == ref_result.change_points
    assert lean_epochs == ref_epochs

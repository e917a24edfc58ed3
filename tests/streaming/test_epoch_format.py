"""The stream epoch format: what an epoch holds, and old layouts refused.

Schema ``"2"`` epochs store reorder-buffer rows positionally with the
delivery's fault tags, and have no ``pending_tags`` section.  A
directory written in the schema ``"1"`` layout (``[t, seq, record]``
buffer rows plus a fingerprint-keyed ``pending_tags`` map) is never
resumed: its manifest is ignored, so the pipeline starts clean.
"""

import hashlib
import json

import pytest

from repro.errors import ConfigError
from repro.perf.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    MANIFEST_NAME,
    Shard,
    shard_fingerprint,
)
from repro.resilience.clock import ManualClock
from repro.resilience.faults import FaultPlan, StreamFaultSpec
from repro.streaming import (
    StreamConfig,
    StreamPipeline,
    StreamRecord,
    run_stream_soak,
    synthetic_stream,
)
from repro.streaming.soak import DEFAULT_STREAM_FAULTS

SOAK_KW = dict(seed=77, duration_s=300.0, rate_per_s=6.0)

#: sha256 of every file a small gated crash soak leaves in its
#: checkpoint directory.  A change here is a change of the epoch
#: layout: bump ``CHECKPOINT_SCHEMA_VERSION`` and re-pin deliberately.
GATED_CRASH_EPOCHS = {
    "manifest.json": (
        "9265de9c26436f08ad57bc5fff3a6da298f8e0b37b839907c8208e6f482d34ca"
    ),
    "shard-00001.jsonl": (
        "ab8e7471515d08224ddfdb091cea7eb303bc490663a5fdbe319fd67895e55b00"
    ),
    "shard-00002.jsonl": (
        "2f24c51589136c437b2b4c8f8a3ec3731330b348d7963c46cc2c5878ed1a153f"
    ),
    "shard-00003.jsonl": (
        "dd2aaf5634629a252d94857817a6ef75b7fbbeffb2d929d4e34c2c9ba1de8fea"
    ),
    "shard-00004.jsonl": (
        "2dc9d90d00db32c7b386dd6a59532fe9b7aebb5ac89c04e7da1b1aed06eaf5c1"
    ),
    "shard-00005.jsonl": (
        "fa183c34753dfcef44dfbf67935a28ba06c1c4dce81f4bf520ef2a2d8b84f960"
    ),
}


def crash_faults(*crash_at_s):
    return StreamFaultSpec(
        base_delay_s=DEFAULT_STREAM_FAULTS.base_delay_s,
        reorder_rate=DEFAULT_STREAM_FAULTS.reorder_rate,
        reorder_extra_s=DEFAULT_STREAM_FAULTS.reorder_extra_s,
        duplicate_rate=DEFAULT_STREAM_FAULTS.duplicate_rate,
        duplicate_delay_s=DEFAULT_STREAM_FAULTS.duplicate_delay_s,
        crash_at_s=crash_at_s,
    )


def mid_stream_state(config, n_deliveries=900):
    """A pipeline's state part-way through the soak's own stream."""
    records = synthetic_stream(
        seed=config.seed, duration_s=SOAK_KW["duration_s"],
        rate_per_s=SOAK_KW["rate_per_s"],
    )
    deliveries = FaultPlan(seed=config.seed).stream_faults(
        "stream-soak", records, DEFAULT_STREAM_FAULTS,
    )
    pipeline = StreamPipeline(config, clock=ManualClock())
    for delivery in deliveries[:n_deliveries]:
        gap = delivery.at_s - pipeline.clock.now()
        if gap > 0:
            pipeline.clock.advance(gap)
        pipeline.ingest(delivery.record, tags=delivery.injected)
    pipeline.pump()
    return pipeline.state_dict()


def parent_layout(state):
    """``state`` rewritten in the schema "1" layout."""
    old = dict(state)
    pending = {}
    rows = []
    for t, seq, source, metric, value, key, role, tags in (
        state["buffer"]["entries"]
    ):
        record = StreamRecord(
            event_time_s=t, source=source, metric=metric, value=value,
            key=key, role=role,
        )
        rows.append([t, seq, record.to_dict()])
        pending.setdefault(record.fingerprint, []).append(list(tags))
    old["buffer"] = {"arrivals": state["buffer"]["arrivals"], "entries": rows}
    old["pending_tags"] = [[fp, queue] for fp, queue in pending.items()]
    return old


def write_epoch(root, config, state, schema, index=5):
    """Commit one epoch the way ``CheckpointStore`` lays it out."""
    root.mkdir(parents=True, exist_ok=True)
    line = (json.dumps(state) + "\n").encode("utf-8")
    name = f"shard-{index:05d}.jsonl"
    (root / name).write_bytes(line)
    run_key = config.fingerprint()
    manifest = {
        "schema": schema,
        "run_key": run_key,
        "shards": {
            str(index): {
                "fingerprint": shard_fingerprint(
                    run_key, Shard(index=index, start=0, stop=0)
                ),
                "digest": hashlib.sha256(line).hexdigest(),
                "n_records": 1,
                "file": name,
            },
        },
    }
    (root / MANIFEST_NAME).write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    )


@pytest.fixture(scope="module")
def state():
    return mid_stream_state(StreamConfig(seed=SOAK_KW["seed"]))


class TestEpochLayout:
    def test_epoch_sections(self, state):
        assert "pending_tags" not in state
        assert set(state) == {
            "counters", "watermark", "buffer", "dedup", "window_op",
            "decay_op", "detector", "emissions", "side_channel", "cursor",
            "clock_s", "epoch", "next_checkpoint_s", "fault_outcomes",
            "trust_gate",
        }
        rows = state["buffer"]["entries"]
        assert rows and all(len(row) == 8 for row in rows)
        assert any(row[7] for row in rows)  # tags ride the buffer rows

    def test_dedup_holds_only_the_watermark_instant(self, state):
        lateness_s = StreamConfig(seed=SOAK_KW["seed"]).allowed_lateness_s
        floor = state["watermark"]["floor_s"]
        watermark = state["watermark"]["max_event_time_s"] - lateness_s
        if floor is not None:
            watermark = max(watermark, floor)
        entries = state["dedup"]["entries"]
        assert len(entries) < 10
        assert all(t >= watermark for t, _ in entries)


class TestParentLayoutRefused:
    def test_same_writer_at_schema_2_resumes(self, state, tmp_path):
        """Control: the hand-built writer produces an epoch the store
        accepts, so the refusal below is the schema's doing."""
        config = StreamConfig(seed=SOAK_KW["seed"])
        write_epoch(tmp_path, config, state, CHECKPOINT_SCHEMA_VERSION)
        pipeline, cursor = StreamPipeline.resume(config, tmp_path)
        assert cursor == state["cursor"] > 0
        assert pipeline.state_dict()["buffer"] == state["buffer"]

    def test_parent_layout_is_never_resumed(self, state, tmp_path):
        config = StreamConfig(seed=SOAK_KW["seed"])
        write_epoch(tmp_path, config, parent_layout(state), "1")
        with pytest.raises(ConfigError, match="no resumable checkpoint"):
            StreamPipeline.resume(config, tmp_path)

    def test_soak_restarts_clean_over_a_parent_layout(self, state, tmp_path):
        """A crash before the first new epoch finds only the parent's
        epoch, refuses it and replays from delivery 0."""
        config = StreamConfig(seed=SOAK_KW["seed"])
        write_epoch(tmp_path / "old", config, parent_layout(state), "1")
        clean = run_stream_soak(**SOAK_KW, checkpoint_dir=tmp_path / "new")
        crashed = run_stream_soak(
            **SOAK_KW, faults=crash_faults(30.0),
            checkpoint_dir=tmp_path / "old",
        )
        assert crashed.crashes == 1
        assert crashed.counters["resumes"] == 0
        assert crashed.digest == clean.digest
        assert crashed.counters == clean.counters
        assert crashed.fault_outcomes == clean.fault_outcomes


def test_gated_crash_soak_epoch_bytes_pinned(tmp_path):
    """Forced flushes, side-channelled late records, duplicates and
    quarantines all land in these epochs."""
    report = run_stream_soak(
        **SOAK_KW,
        config=StreamConfig(
            seed=SOAK_KW["seed"], reorder_capacity=100, late_policy="side",
        ),
        gate_kwargs=dict(burst_limit=12, repeat_limit=3),
        faults=crash_faults(100.0, 200.0),
        checkpoint_dir=tmp_path,
    )
    assert report.crashes == 2
    c = report.counters
    for bucket in ("forced_flushes", "late_side", "deduped", "quarantined"):
        assert c[bucket] > 0, bucket
    got = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.iterdir())
    }
    assert got == GATED_CRASH_EPOCHS

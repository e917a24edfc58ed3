"""The stream epoch format: what an epoch holds, how resume folds the
epochs, and old layouts refused.

A schema ``"3"`` epoch holds every bounded stage whole, the reorder
buffer and the trust gate as parallel columns, and of the two
append-only logs only the emissions and side-channel records since the
epoch before it, after the ``emissions_from`` and ``side_channel_from``
entries the earlier epochs hold.  ``resume`` folds the epochs in index
order from the first and stops at the first one that fails verification
or does not continue the logs.  A directory written in the schema
``"2"`` layout (the whole logs in every epoch, one positional row per
buffered delivery, the gate's joined ``source/key`` strings and
``metric:value`` tokens) is never resumed: its manifest is ignored, so
the pipeline starts clean.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.errors import ConfigError
from repro.integrity import OnlineTrustGate
from repro.perf.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    MANIFEST_NAME,
    CheckpointStore,
    Shard,
    shard_fingerprint,
)
from repro.resilience.clock import ManualClock
from repro.resilience.faults import FaultPlan, StreamFaultSpec
from repro.streaming import (
    StreamConfig,
    StreamPipeline,
    run_stream_soak,
    synthetic_stream,
)
from repro.streaming.pipeline import LATE_POLICIES
from repro.streaming.soak import DEFAULT_STREAM_FAULTS

from tests.streaming.oracle import _gate_escape

SOAK_KW = dict(seed=77, duration_s=300.0, rate_per_s=6.0)
GATE_KW = dict(burst_limit=12, repeat_limit=3)

#: sha256 of every file a small gated crash soak leaves in its
#: checkpoint directory.  A change here is a change of the epoch
#: layout: bump ``CHECKPOINT_SCHEMA_VERSION`` and re-pin deliberately.
GATED_CRASH_EPOCHS = {
    "manifest.json": (
        "8820f8a2857a8f66a8b36dd59c04d21ad3b52718429935591be3196b4446de92"
    ),
    "shard-00001.jsonl": (
        "b8822499fd1d93be30e3f99adec45d50f0ddb0af50bc903becce9228f686937f"
    ),
    "shard-00002.jsonl": (
        "036f74ec3fd1bd00598e822db4b30db248afa4a19aad76920cc11bb60b25957c"
    ),
    "shard-00003.jsonl": (
        "266ce1dc362dbea1e8a687f6055aec78e68abf24b6998c33c29b6b1e43c05604"
    ),
    "shard-00004.jsonl": (
        "14b8a8acb85774300b7fad6f01530b332814a885b5c907a48aea3d034f934add"
    ),
    "shard-00005.jsonl": (
        "f6a64630b21e8b1a7a94f80d178acb0a7e02b9731f9d506461f1cba7ef844525"
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
    """A gated pipeline's state part-way through the soak's own stream."""
    records = synthetic_stream(
        seed=config.seed, duration_s=SOAK_KW["duration_s"],
        rate_per_s=SOAK_KW["rate_per_s"],
    )
    deliveries = FaultPlan(seed=config.seed).stream_faults(
        "stream-soak", records, DEFAULT_STREAM_FAULTS,
    )
    pipeline = StreamPipeline(
        config, clock=ManualClock(), trust_gate=OnlineTrustGate(**GATE_KW),
    )
    for delivery in deliveries[:n_deliveries]:
        gap = delivery.at_s - pipeline.clock.now()
        if gap > 0:
            pipeline.clock.advance(gap)
        pipeline.ingest(delivery.record, tags=delivery.injected)
    pipeline.pump()
    return pipeline.state_dict()


def parent_layout(state):
    """``state``, an epoch that holds the whole logs, rewritten in the
    schema "2" layout."""
    assert state["emissions_from"] == state["side_channel_from"] == 0
    old = {
        name: section for name, section in state.items()
        if name not in ("emissions_from", "side_channel_from")
    }
    buffer = state["buffer"]
    old["buffer"] = {
        "arrivals": buffer["arrivals"],
        "entries": sorted(
            [t, seq, source, metric, value, key, role, list(tags)]
            for t, seq, source, metric, value, key, role, tags in zip(
                buffer["event_time_s"], buffer["seq"], buffer["source"],
                buffer["metric"], buffer["value"], buffer["key"],
                buffer["role"], buffer["tags"],
            )
        ),
    }
    gate = state["trust_gate"]
    rows = []
    start = 0
    for source, key, metric, value, run, n_times in zip(
        gate["source"], gate["key"], gate["metric"], gate["value"],
        gate["run"], gate["n_times"],
    ):
        rows.append([
            f"{_gate_escape(source)}/{_gate_escape(key)}",
            gate["times"][start:start + n_times], f"{metric}:{value!r}",
            run,
        ])
        start += n_times
    old["trust_gate"] = {
        "keys": rows,
        "recent_quarantined": gate["recent_quarantined"],
        "observed": gate["observed"],
        "quarantined": gate["quarantined"],
    }
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


def gated_config(late_policy="side"):
    return StreamConfig(
        seed=SOAK_KW["seed"], reorder_capacity=100, late_policy=late_policy,
    )


def gated_soak(checkpoint_dir, late_policy="side", faults=None):
    """The small gated soak every epoch pin here runs."""
    return run_stream_soak(
        **SOAK_KW,
        config=gated_config(late_policy),
        gate_kwargs=GATE_KW,
        faults=crash_faults() if faults is None else faults,
        checkpoint_dir=checkpoint_dir,
    )


def epoch_states(root):
    """Every epoch under ``root`` by index, without ``counters.resumes``."""
    states = {}
    for path in sorted(Path(root).glob("shard-*.jsonl")):
        state = json.loads(path.read_bytes())
        del state["counters"]["resumes"]
        states[state["epoch"]] = state
    return states


def without_resumes(counters):
    return {name: n for name, n in counters.items() if name != "resumes"}


@pytest.fixture(scope="module")
def state():
    return mid_stream_state(StreamConfig(seed=SOAK_KW["seed"]))


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    """The gated soak without crashes, and the epochs it wrote."""
    root = tmp_path_factory.mktemp("uninterrupted")
    return gated_soak(root), epoch_states(root)


class TestEpochLayout:
    def test_epoch_sections(self, state):
        assert "pending_tags" not in state
        assert set(state) == {
            "counters", "watermark", "buffer", "dedup", "window_op",
            "decay_op", "detector", "emissions_from", "emissions",
            "side_channel_from", "side_channel", "cursor", "clock_s",
            "epoch", "next_checkpoint_s", "fault_outcomes", "trust_gate",
        }
        buffer = state["buffer"]
        assert set(buffer) == {
            "arrivals", "event_time_s", "seq", "source", "metric", "value",
            "key", "role", "tags",
        }
        assert len({len(column) for column in buffer.values()
                    if isinstance(column, list)}) == 1
        assert any(buffer["tags"])  # tags ride the buffer columns
        gate = state["trust_gate"]
        assert sum(gate["n_times"]) == len(gate["times"]) > 0
        # Nothing committed yet, so the epoch holds the whole logs.
        assert state["emissions_from"] == 0 and state["emissions"]

    def test_dedup_holds_only_the_watermark_instant(self, state):
        lateness_s = StreamConfig(seed=SOAK_KW["seed"]).allowed_lateness_s
        floor = state["watermark"]["floor_s"]
        watermark = state["watermark"]["max_event_time_s"] - lateness_s
        if floor is not None:
            watermark = max(watermark, floor)
        entries = state["dedup"]["entries"]
        assert len(entries) < 10
        assert all(t >= watermark for t, _ in entries)

    def test_epochs_partition_the_logs(self, tmp_path):
        """Each epoch writes the log entries since the one before it, so
        the epochs in order, plus what the last one had not yet seen,
        are the whole emission log and side channel."""
        config = StreamConfig(
            seed=SOAK_KW["seed"], late_policy="side", allowed_lateness_s=5.0,
        )
        records = synthetic_stream(
            seed=config.seed, duration_s=SOAK_KW["duration_s"],
            rate_per_s=SOAK_KW["rate_per_s"],
        )
        deliveries = FaultPlan(seed=config.seed).stream_faults(
            "stream-soak", records, DEFAULT_STREAM_FAULTS,
        )
        pipeline = StreamPipeline(
            config, clock=ManualClock(), checkpoint_dir=tmp_path,
        )
        for delivery in deliveries:
            gap = delivery.at_s - pipeline.clock.now()
            if gap > 0:
                pipeline.clock.advance(gap)
            pipeline.ingest(delivery.record, tags=delivery.injected)
        pipeline.finish()
        epochs = list(epoch_states(tmp_path).values())
        assert len(epochs) >= 4
        emissions, side = [], []
        for epoch in epochs:
            assert epoch["emissions_from"] == len(emissions)
            assert epoch["side_channel_from"] == len(side)
            emissions += epoch["emissions"]
            side += epoch["side_channel"]
        assert side and len(side) < len(pipeline.side_channel)
        assert emissions == [
            e.to_dict() for e in pipeline.emissions[:len(emissions)]
        ]
        assert side == [
            r.to_dict() for r in pipeline.side_channel[:len(side)]
        ]


class TestParentLayoutRefused:
    def test_same_writer_at_the_current_schema_resumes(self, state, tmp_path):
        """Control: the hand-built writer produces an epoch the store
        accepts, so the refusal below is the schema's doing."""
        config = StreamConfig(seed=SOAK_KW["seed"])
        write_epoch(tmp_path, config, state, CHECKPOINT_SCHEMA_VERSION)
        pipeline, cursor = StreamPipeline.resume(
            config, tmp_path, trust_gate=OnlineTrustGate(**GATE_KW),
        )
        assert cursor == state["cursor"] > 0
        resumed = pipeline.state_dict()
        assert resumed["buffer"] == state["buffer"]
        assert resumed["trust_gate"] == state["trust_gate"]
        assert resumed["emissions_from"] == len(state["emissions"])
        assert resumed["emissions"] == []

    def test_parent_layout_is_never_resumed(self, state, tmp_path):
        config = StreamConfig(seed=SOAK_KW["seed"])
        write_epoch(tmp_path, config, parent_layout(state), "2")
        with pytest.raises(ConfigError, match="no resumable checkpoint"):
            StreamPipeline.resume(config, tmp_path)

    def test_soak_restarts_clean_over_a_parent_layout(self, state, tmp_path):
        """A crash before the first new epoch finds only the parent's
        epoch, refuses it and replays from delivery 0."""
        config = StreamConfig(seed=SOAK_KW["seed"])
        write_epoch(tmp_path / "old", config, parent_layout(state), "2")
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
    report = gated_soak(tmp_path, faults=crash_faults(100.0, 200.0))
    assert report.crashes == 2
    c = report.counters
    for bucket in ("forced_flushes", "late_side", "deduped", "quarantined"):
        assert c[bucket] > 0, bucket
    got = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.iterdir())
    }
    assert got == GATED_CRASH_EPOCHS


@pytest.mark.parametrize("late_policy", LATE_POLICIES)
def test_crashed_run_writes_the_uninterrupted_epochs(late_policy, tmp_path):
    """The delta chain rests on this: a resumed run commits, index for
    index, the epochs the uninterrupted run commits, so the entries an
    epoch omits are the ones its predecessors hold."""
    gated_soak(tmp_path / "clean", late_policy)
    crashed = gated_soak(
        tmp_path / "crashed", late_policy, crash_faults(100.0, 200.0),
    )
    assert crashed.crashes == 2 and crashed.counters["resumes"] == 2
    clean_epochs = epoch_states(tmp_path / "clean")
    assert len(clean_epochs) == 5
    assert epoch_states(tmp_path / "crashed") == clean_epochs


def soak_resuming_over(damage, root, monkeypatch):
    """The gated soak crashed at 200 s, after its third epoch, with
    ``damage(root)`` done just before the resume.  Returns the report
    and what each resume gave back: a cursor, or the ConfigError."""
    resume = StreamPipeline.resume.__func__
    outcomes = []

    def damaged_resume(cls, config, checkpoint_dir, **kwargs):
        damage(Path(checkpoint_dir))
        try:
            pipeline, cursor = resume(cls, config, checkpoint_dir, **kwargs)
        except ConfigError as exc:
            outcomes.append(exc)
            raise
        outcomes.append(cursor)
        return pipeline, cursor

    monkeypatch.setattr(StreamPipeline, "resume", classmethod(damaged_resume))
    return gated_soak(root, faults=crash_faults(200.0)), outcomes


def tear(root, index):
    path = root / f"shard-{index:05d}.jsonl"
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) // 2])


def skip_ahead(root, index, field):
    """Recommit epoch ``index`` with ``field`` one entry past the logs
    the epochs before it hold; the manifest vouches for its bytes."""
    store = CheckpointStore(root, run_key=gated_config().fingerprint())
    shard = Shard(index=index, start=0, stop=0)
    [state] = store.load(shard)
    state[field] += 1
    store.commit(shard, [state])


class TestDamagedEpochs:
    """Resume stops at the first broken link of the chain, and the soak
    still converges to the uninterrupted run."""

    def assert_converges(self, report, uninterrupted, root):
        clean, clean_epochs = uninterrupted
        assert report.crashes == 1
        assert report.digest == clean.digest
        assert without_resumes(report.counters) == without_resumes(
            clean.counters
        )
        assert report.fault_outcomes == clean.fault_outcomes
        assert epoch_states(root) == clean_epochs

    def test_torn_middle_epoch_resumes_from_the_one_before(
        self, uninterrupted, tmp_path, monkeypatch,
    ):
        report, outcomes = soak_resuming_over(
            lambda root: tear(root, 2), tmp_path, monkeypatch,
        )
        assert outcomes == [uninterrupted[1][1]["cursor"]]
        assert report.counters["resumes"] == 1
        self.assert_converges(report, uninterrupted, tmp_path)

    @pytest.mark.parametrize("field", ["emissions_from", "side_channel_from"])
    def test_epoch_that_skips_ahead_ends_the_chain(
        self, field, uninterrupted, tmp_path, monkeypatch,
    ):
        report, outcomes = soak_resuming_over(
            lambda root: skip_ahead(root, 2, field), tmp_path, monkeypatch,
        )
        assert outcomes == [uninterrupted[1][1]["cursor"]]
        self.assert_converges(report, uninterrupted, tmp_path)

    def test_torn_first_epoch_restarts_clean(
        self, uninterrupted, tmp_path, monkeypatch,
    ):
        report, outcomes = soak_resuming_over(
            lambda root: tear(root, 1), tmp_path, monkeypatch,
        )
        [refusal] = outcomes
        assert isinstance(refusal, ConfigError)
        assert report.counters["resumes"] == 0
        self.assert_converges(report, uninterrupted, tmp_path)


def test_epoch_bytes_stay_flat_on_a_longer_stream(tmp_path):
    """No epoch grows with run length: the largest epoch of a stream
    four times longer is within 1.25x of the largest of the short one
    (the whole logs in every epoch made it 3.8x)."""

    def largest_epoch(duration_s):
        root = tmp_path / str(duration_s)
        run_stream_soak(
            seed=7, duration_s=duration_s, rate_per_s=2.0,
            config=StreamConfig(
                seed=7, late_policy="side", allowed_lateness_s=10.0,
            ),
            gate_kwargs=GATE_KW,
            checkpoint_dir=root,
        )
        sizes = [path.stat().st_size for path in root.glob("shard-*")]
        assert len(sizes) >= duration_s / 60.0 - 1
        return max(sizes)

    assert largest_epoch(4800.0) <= 1.25 * largest_epoch(1200.0)

"""The fault-tolerant stream pipeline: ingest → order → dedup → aggregate.

Stages, in delivery order:

1. **watermark gate** — a record older than the current watermark is
   late; the configured policy drops it or shunts it to the side
   channel, counted exactly either way;
2. **reorder buffer** — on-time records wait (bounded) until the
   watermark passes them, then release in event-time order.  Overflow
   force-releases the oldest record and raises the watermark floor;
3. **dedup filter** — fingerprint-keyed; sees an ordered stream and
   forgets a fingerprint once the watermark passes its event time, since
   every later copy of it is late;
4. **bounded queues with backpressure** — between ingest and the
   operators, and between the operators and the detector.  A full
   queue drains its consumer synchronously (counted), so memory is
   bounded and the flow stays deterministic;
5. **incremental operators** → **change-point detector**.

Every stage exposes ``state_dict``/``load_state``; a checkpoint drains
the queues, snapshots all stages plus the emission log, and commits the
lot as one epoch through :class:`~repro.perf.checkpoint.CheckpointStore`
(run-keyed on the config fingerprint, so a checkpoint can never resume
a different stream).  The exactly-once ledger —

    emitted == aggregated + late_dropped + late_side + deduped + quarantined

— must close at the end of every run, crashed or not; violations raise.
(``quarantined`` is only nonzero when the pipeline is built with an
:class:`~repro.integrity.online.OnlineTrustGate`.)
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Tuple, Union

from repro.errors import ConfigError, LedgerViolationError
from repro.perf.checkpoint import CheckpointStore, Shard
from repro.resilience.clock import Clock, ManualClock
from repro.streaming.dedup import DedupFilter
from repro.streaming.detector import ChangePoint, OnlineChangePointDetector
from repro.streaming.journal import StreamJournal
from repro.streaming.operators import (
    DecayedAggregate,
    Emission,
    SlidingWindowAggregate,
)
from repro.streaming.records import StreamRecord
from repro.streaming.watermark import ReorderBuffer, WatermarkTracker

PathLike = Union[str, Path]

#: What to do with a record the watermark has already passed.
LATE_POLICIES: Tuple[str, ...] = ("drop", "side")


@dataclass(frozen=True)
class StreamConfig:
    """Immutable pipeline parameters; the fingerprint keys checkpoints."""

    name: str = "usaas-stream"
    seed: int = 20231128
    allowed_lateness_s: float = 30.0
    reorder_capacity: int = 256
    #: No longer read: dedup forgets a fingerprint at the watermark.
    #: Kept because callers pass it and it is part of the run key.
    dedup_horizon_s: float = 120.0
    late_policy: str = "drop"
    queue_capacity: int = 64
    window_s: float = 60.0
    slide_s: float = 10.0
    half_life_s: float = 120.0
    sample_every_s: float = 10.0
    checkpoint_every_s: float = 60.0
    detector_reference_n: int = 10
    detector_test_n: int = 3
    detector_z_threshold: float = 5.0
    detector_min_gap_s: float = 120.0
    detector_min_shift_frac: float = 0.1
    attribution_horizon_s: float = 300.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("stream config requires a name")
        if self.late_policy not in LATE_POLICIES:
            raise ConfigError(
                f"late_policy must be one of {LATE_POLICIES}, "
                f"got {self.late_policy!r}"
            )
        if self.reorder_capacity < 1:
            raise ConfigError("reorder_capacity must be >= 1")
        if self.queue_capacity < 1:
            raise ConfigError("queue_capacity must be >= 1")
        if self.checkpoint_every_s <= 0:
            raise ConfigError("checkpoint_every_s must be positive")
        if self.dedup_horizon_s < self.allowed_lateness_s:
            raise ConfigError(
                "dedup_horizon_s must cover allowed_lateness_s: a "
                "duplicate can arrive any time inside the lateness window"
            )

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    def fingerprint(self) -> str:
        """SHA-256 over the canonical config JSON (checkpoint run key)."""
        blob = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class StreamCounters:
    """Exactly-once accounting: every delivery lands in one bucket.

    ``emitted`` counts deliveries ingested; at the end of a run every
    one of them is **aggregated** (reached the operators), **late**
    (dropped or side-channelled), **deduped**, or **quarantined** by
    the trust gate — and nothing else.
    """

    emitted: int = 0
    aggregated: int = 0
    late_dropped: int = 0
    late_side: int = 0
    deduped: int = 0
    quarantined: int = 0
    forced_flushes: int = 0
    backpressure_waits: int = 0
    emissions: int = 0
    change_points: int = 0
    checkpoints: int = 0
    resumes: int = 0

    @property
    def accounted(self) -> int:
        return (
            self.aggregated + self.late_dropped
            + self.late_side + self.deduped + self.quarantined
        )

    def check_exact_once(self) -> None:
        """Raise :class:`LedgerViolationError` unless the ledger closes
        (call after ``finish``)."""
        if self.emitted != self.accounted:
            raise LedgerViolationError(
                f"exact-once ledger violated: emitted={self.emitted} != "
                f"aggregated={self.aggregated} + "
                f"late_dropped={self.late_dropped} + "
                f"late_side={self.late_side} + deduped={self.deduped} + "
                f"quarantined={self.quarantined}"
            )

    def counters_dict(self) -> Dict[str, int]:
        return {
            "emitted": self.emitted,
            "aggregated": self.aggregated,
            "late_dropped": self.late_dropped,
            "late_side": self.late_side,
            "deduped": self.deduped,
            "quarantined": self.quarantined,
            "forced_flushes": self.forced_flushes,
            "backpressure_waits": self.backpressure_waits,
            "emissions": self.emissions,
            "change_points": self.change_points,
            "checkpoints": self.checkpoints,
            "resumes": self.resumes,
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        for key in self.counters_dict():
            setattr(self, key, int(state.get(key, 0)))


class BoundedQueue:
    """A deque with a hard capacity; pushing past it is a protocol error.

    The pipeline never lets that happen: it drains the consumer *before*
    a push that would overflow, which is what ``backpressure_waits``
    counts.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ConfigError("queue capacity must be >= 1")
        self.capacity = int(capacity)
        self._items: Deque[Any] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def full(self) -> bool:
        return len(self._items) >= self.capacity

    def push(self, item: Any) -> None:
        if self.full:
            raise ConfigError("bounded queue overflow: drain before push")
        self._items.append(item)

    def drain(self) -> List[Any]:
        items = list(self._items)
        self._items.clear()
        return items


@dataclass(frozen=True)
class StreamResult:
    """Final state of one stream run (or one resumed continuation)."""

    config_fingerprint: str
    counters: Dict[str, int]
    emissions: Tuple[Emission, ...]
    change_points: Tuple[ChangePoint, ...]
    digest: str

    def summary(self) -> str:
        c = self.counters
        return (
            f"[stream] emitted={c['emitted']} aggregated={c['aggregated']} "
            f"late={c['late_dropped'] + c['late_side']} "
            f"deduped={c['deduped']} emissions={c['emissions']} "
            f"change_points={c['change_points']} digest={self.digest[:12]}"
        )


def emissions_digest(emissions: List[Emission]) -> str:
    """Order-sensitive SHA-256 over the full emission log.

    Byte-identical across reruns of the same seed, and across
    crash-resume vs. uninterrupted runs — the convergence oracle the
    soak asserts on.
    """
    digest = hashlib.sha256()
    for emission in emissions:
        line = json.dumps(emission.to_dict(), sort_keys=True) + "\n"
        digest.update(line.encode("utf-8"))
    return digest.hexdigest()


class StreamPipeline:
    """One live stream: drive with ``ingest``, close with ``finish``."""

    def __init__(
        self,
        config: StreamConfig,
        clock: Optional[Clock] = None,
        checkpoint_dir: Optional[PathLike] = None,
        journal: Optional[StreamJournal] = None,
        trust_gate: Optional[Any] = None,
    ) -> None:
        # ``trust_gate`` (an OnlineTrustGate-shaped object) is a
        # construction argument, NOT a StreamConfig field: the config
        # fingerprint keys checkpoints, and running with or without a
        # gate must not orphan existing checkpoint epochs.
        self.config = config
        self.trust_gate = trust_gate
        self.clock = clock or ManualClock()
        self.journal = journal
        self.counters = StreamCounters()
        self.watermark = WatermarkTracker(config.allowed_lateness_s)
        self.buffer = ReorderBuffer(config.reorder_capacity)
        self.dedup = DedupFilter()
        self.window_op = SlidingWindowAggregate(
            config.window_s, config.slide_s
        )
        self.decay_op = DecayedAggregate(
            config.half_life_s, config.sample_every_s
        )
        self.detector = OnlineChangePointDetector(
            reference_n=config.detector_reference_n,
            test_n=config.detector_test_n,
            z_threshold=config.detector_z_threshold,
            min_gap_s=config.detector_min_gap_s,
            min_shift_frac=config.detector_min_shift_frac,
            attribution_horizon_s=config.attribution_horizon_s,
        )
        self.emissions: List[Emission] = []
        self.side_channel: List[StreamRecord] = []
        self._to_operators = BoundedQueue(config.queue_capacity)
        self._to_detector = BoundedQueue(config.queue_capacity)
        self._store: Optional[CheckpointStore] = None
        if checkpoint_dir is not None:
            self._store = CheckpointStore(
                checkpoint_dir, run_key=config.fingerprint()
            )
        self._epoch = 0
        self._next_checkpoint_s = config.checkpoint_every_s
        self._finished = False
        #: fault kind -> terminal bucket -> count; the soak's per-kind
        #: dedup/quarantine attribution.
        self.fault_outcomes: Dict[str, Dict[str, int]] = {}

    def _tag_outcome(self, tags: Tuple[str, ...], bucket: str) -> None:
        for kind in tags:
            buckets = self.fault_outcomes.setdefault(kind, {})
            buckets[bucket] = buckets.get(bucket, 0) + 1

    # -- ingest -----------------------------------------------------------

    def ingest(
        self, record: StreamRecord, tags: Tuple[str, ...] = ()
    ) -> None:
        """Deliver one record (arrival order = call order).

        ``tags`` names the injected fault kinds that shaped this
        delivery (a soak passes ``delivery.injected``); the pipeline
        attributes the record's terminal bucket to each tag in
        :attr:`fault_outcomes`.  The tags travel with the delivery
        through the reorder buffer.
        """
        if self._finished:
            raise ConfigError("cannot ingest into a finished pipeline")
        counters = self.counters
        counters.emitted += 1
        watermark = self.watermark
        before_s = watermark.watermark_s
        if record.event_time_s < before_s:
            if self.config.late_policy == "side":
                counters.late_side += 1
                self._tag_outcome(tuple(tags), "late_side")
                self.side_channel.append(record)
            else:
                counters.late_dropped += 1
                self._tag_outcome(tuple(tags), "late_dropped")
            return
        buffer = self.buffer
        buffer.push(record, tuple(tags))
        wm = watermark.observe(record.event_time_s)
        while buffer.overflowing:
            oldest = buffer.pop_oldest()
            wm = watermark.advance_floor(oldest[0].event_time_s)
            counters.forced_flushes += 1
            self._route(*oldest)
        if buffer.due(wm):
            for released in buffer.release(wm):
                self._route(*released)
        # Dedup already forgot every fingerprint below ``before_s``;
        # only a watermark that moved can make it forget more.
        if wm > before_s:
            self.dedup.evict(wm)
        self._maybe_checkpoint()

    def _route(
        self, record: StreamRecord, fp: str, tags: Tuple[str, ...]
    ) -> None:
        """Dedup and trust-gate one ordered delivery (``fp`` is its
        fingerprint, hashed at ingest; ``tags`` its fault tags), then
        queue it."""
        if self.dedup.seen(record, fp):
            self.counters.deduped += 1
            self._tag_outcome(tags, "deduped")
            return
        if self.trust_gate is not None and self.trust_gate.observe(record):
            self.counters.quarantined += 1
            self._tag_outcome(tags, "quarantined")
            return
        self.counters.aggregated += 1
        self._tag_outcome(tags, "aggregated")
        if self._to_operators.full:
            self.counters.backpressure_waits += 1
            # A mid-release drain may not use the global watermark:
            # records released after this one (same release sweep) are
            # not queued yet.  Records arrive here in event-time order,
            # so this record's own event time is the tightest bound the
            # operators can safely emit strictly below.
            self._drain_operators(record.event_time_s)
        self._to_operators.push(record)

    # -- stage drains -----------------------------------------------------

    def _drain_operators(self, watermark_s: Optional[float] = None) -> None:
        """Fold queued records into the operators; emit what closed.

        ``watermark_s`` overrides the global watermark for mid-release
        backpressure drains (see :meth:`_route`); drains between
        ingests use the global value.
        """
        records = self._to_operators.drain()
        wm = (
            self.watermark.watermark_s if watermark_s is None
            else watermark_s
        )
        batch = self.window_op.process(records, wm)
        batch += self.decay_op.process(records, wm)
        # All emissions in one drain lie in (previous wm, wm]; sorting
        # the merged batch therefore yields the same global sequence no
        # matter where backpressure happened to cut the drains — the
        # property that makes crash-resume digests byte-identical.
        batch.sort(key=lambda e: (e.at_s, e.operator, e.metric))
        for emission in batch:
            if self._to_detector.full:
                self.counters.backpressure_waits += 1
                self._drain_detector()
            self._to_detector.push(emission)

    def _drain_detector(self) -> None:
        from dataclasses import replace as dc_replace

        emissions = self._to_detector.drain()
        for emission in emissions:
            self.emissions.append(emission)
            self.counters.emissions += 1
            cp = self.detector.on_emission(emission)
            if cp is not None:
                self.counters.change_points += 1
                # A shift whose run-up was dense with quarantined
                # records is an attack burst, not a network event.
                if (
                    self.trust_gate is not None
                    and self.trust_gate.burst_active(cp.at_s)
                ):
                    self.detector.change_points[-1] = dc_replace(
                        cp, suspect=True
                    )
        if self.journal is not None and emissions:
            self.journal.append(emissions)

    def pump(self) -> None:
        """Drain every queue (checkpoints and finish need empty queues)."""
        self._drain_operators()
        self._drain_detector()

    # -- checkpointing ----------------------------------------------------

    def _maybe_checkpoint(self) -> None:
        if self._store is None:
            return
        if self.clock.now() >= self._next_checkpoint_s:
            self.checkpoint()

    def state_dict(self) -> Dict[str, Any]:
        return {
            "counters": self.counters.counters_dict(),
            "watermark": self.watermark.state_dict(),
            "buffer": self.buffer.state_dict(),
            "dedup": self.dedup.state_dict(),
            "window_op": self.window_op.state_dict(),
            "decay_op": self.decay_op.state_dict(),
            "detector": self.detector.state_dict(),
            "emissions": [e.to_dict() for e in self.emissions],
            "side_channel": [r.to_dict() for r in self.side_channel],
            "cursor": self.counters.emitted,
            "clock_s": self.clock.now(),
            "epoch": self._epoch,
            "next_checkpoint_s": self._next_checkpoint_s,
            "fault_outcomes": {
                kind: dict(buckets)
                for kind, buckets in self.fault_outcomes.items()
            },
            "trust_gate": (
                None if self.trust_gate is None
                else self.trust_gate.state_dict()
            ),
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        self.counters.load_state(state.get("counters", {}))
        self.watermark.load_state(state.get("watermark", {}))
        self.buffer.load_state(state.get("buffer", {}))
        self.dedup.load_state(state.get("dedup", {}))
        self.window_op.load_state(state.get("window_op", {}))
        self.decay_op.load_state(state.get("decay_op", {}))
        self.detector.load_state(state.get("detector", {}))
        self.emissions = [
            Emission.from_dict(e) for e in state.get("emissions", [])
        ]
        self.side_channel = [
            StreamRecord.from_dict(r)
            for r in state.get("side_channel", [])
        ]
        self._epoch = int(state.get("epoch", 0))
        self._next_checkpoint_s = float(
            state.get("next_checkpoint_s", self.config.checkpoint_every_s)
        )
        self.fault_outcomes = {
            str(kind): {str(b): int(n) for b, n in buckets.items()}
            for kind, buckets in state.get("fault_outcomes", {}).items()
        }
        gate_state = state.get("trust_gate")
        if gate_state is not None and self.trust_gate is not None:
            self.trust_gate.load_state(gate_state)

    def checkpoint(self) -> int:
        """Drain, snapshot every stage, commit one epoch; returns it."""
        if self._store is None:
            raise ConfigError("pipeline has no checkpoint directory")
        self.pump()
        self._epoch += 1
        self.counters.checkpoints += 1
        # Advance the cadence *before* snapshotting: the snapshot must
        # carry the post-checkpoint schedule or a resumed pipeline would
        # immediately checkpoint again and diverge from the
        # uninterrupted run.
        self._next_checkpoint_s = (
            self.clock.now() + self.config.checkpoint_every_s
        )
        self._store.commit(
            Shard(index=self._epoch, start=0, stop=0), [self.state_dict()]
        )
        return self._epoch

    @classmethod
    def resume(
        cls,
        config: StreamConfig,
        checkpoint_dir: PathLike,
        journal: Optional[StreamJournal] = None,
        trust_gate: Optional[Any] = None,
    ) -> Tuple["StreamPipeline", int]:
        """Rebuild a pipeline from its latest committed epoch.

        Returns ``(pipeline, cursor)`` where ``cursor`` is the number of
        deliveries the checkpoint had already ingested — the driver
        replays the arrival sequence from that index and the result
        converges byte-identically to an uninterrupted run.  The
        journal, when given, is atomically truncated to the emissions
        the checkpoint vouches for, so resumption re-emits nothing.
        """
        store = CheckpointStore(checkpoint_dir, run_key=config.fingerprint())
        epochs = store.completed_indices()
        state: Optional[Dict[str, Any]] = None
        while epochs and state is None:
            epoch = epochs.pop()
            records = store.load(Shard(index=epoch, start=0, stop=0))
            if records:
                state = records[0]
        if state is None:
            raise ConfigError(
                f"no resumable checkpoint under {checkpoint_dir}"
            )
        pipeline = cls(
            config,
            clock=ManualClock(start=float(state.get("clock_s", 0.0))),
            checkpoint_dir=checkpoint_dir,
            journal=journal,
            trust_gate=trust_gate,
        )
        pipeline.load_state(state)
        pipeline.counters.resumes += 1
        if journal is not None:
            journal.rewrite(pipeline.emissions)
        return pipeline, int(state.get("cursor", 0))

    # -- finish -----------------------------------------------------------

    def finish(self) -> StreamResult:
        """Flush everything still in flight and close the ledger."""
        if self._finished:
            raise ConfigError("pipeline already finished")
        final_wm = self.watermark.max_event_time_s
        self.watermark.advance_floor(final_wm)
        for released in self.buffer.release(final_wm):
            self._route(*released)
        self.pump()
        # In-stream drains are strictly-before-watermark; the stream is
        # over now, so close the boundary inclusively: complete windows
        # ending exactly at the last event time, and the final grid
        # samples.
        batch = self.window_op.flush(final_wm)
        batch += self.decay_op.flush(final_wm)
        batch.sort(key=lambda e: (e.at_s, e.operator, e.metric))
        for emission in batch:
            if self._to_detector.full:
                self.counters.backpressure_waits += 1
                self._drain_detector()
            self._to_detector.push(emission)
        self._drain_detector()
        self._finished = True
        self.counters.check_exact_once()
        return StreamResult(
            config_fingerprint=self.config.fingerprint(),
            counters=self.counters.counters_dict(),
            emissions=tuple(self.emissions),
            change_points=tuple(self.detector.change_points),
            digest=emissions_digest(self.emissions),
        )

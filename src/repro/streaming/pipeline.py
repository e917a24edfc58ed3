"""The fault-tolerant stream pipeline: ingest → order → dedup → aggregate.

Stages, in delivery order:

1. **watermark gate** — a record older than the current watermark is
   late; the configured policy drops it or shunts it to the side
   channel, counted exactly either way;
2. **reorder buffer** — on-time records wait (bounded) until the
   watermark passes them, then release in event-time order.  Overflow
   force-releases the oldest record and raises the watermark floor;
3. **dedup filter** — keyed on record identity; sees an ordered stream
   and forgets an identity once the watermark passes its event time,
   since every later copy of it is late;
4. **bounded queues with backpressure** — between ingest and the
   operators, and between the operators and the detector.  A full
   queue drains its consumer synchronously (counted), so memory is
   bounded and the flow stays deterministic;
5. **incremental operators** → **change-point detector**.

Every stage exposes ``state_dict``/``load_state``; a checkpoint drains
the queues, snapshots all stages plus the emissions and side-channel
records since the previous epoch, and commits the lot as one epoch
through :class:`~repro.perf.checkpoint.CheckpointStore` (run-keyed on
the config fingerprint, so a checkpoint can never resume a different
stream).  The exactly-once ledger —

    emitted == aggregated + late_dropped + late_side + deduped + quarantined

— must close at the end of every run, crashed or not; violations raise.
(``quarantined`` is only nonzero when the pipeline is built with an
:class:`~repro.integrity.online.OnlineTrustGate`.)
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import asdict, dataclass, replace
from json.encoder import encode_basestring_ascii
from math import isfinite
from pathlib import Path
from operator import attrgetter
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

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
from repro.streaming.watermark import (
    Released,
    ReorderBuffer,
    WatermarkTracker,
)

PathLike = Union[str, Path]

#: What to do with a record the watermark has already passed.
LATE_POLICIES: Tuple[str, ...] = ("drop", "side")

#: The detector's total order over one drain's emissions.
_EMISSION_ORDER = attrgetter("at_s", "operator", "metric")


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


class BoundedQueue(deque):
    """A deque with a hard capacity; pushing past it is a protocol error.

    The pipeline never lets that happen: it drains the consumer *before*
    a push that would overflow, which is what ``backpressure_waits``
    counts.  The pipeline's per-record paths compare ``len`` with
    ``capacity`` and call ``append`` themselves: both are the deque's
    own C methods.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ConfigError("queue capacity must be >= 1")
        super().__init__()
        self.capacity = int(capacity)

    @property
    def full(self) -> bool:
        return len(self) >= self.capacity

    def push(self, item: Any) -> None:
        if self.full:
            raise ConfigError("bounded queue overflow: drain before push")
        self.append(item)

    def drain(self) -> List[Any]:
        items = list(self)
        self.clear()
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


#: ``json.dumps(obj, sort_keys=True)`` without building an encoder per call.
_SORTED_JSON = json.JSONEncoder(sort_keys=True)


def _json_scalar(value: Any) -> str:
    """``value`` exactly as :data:`_SORTED_JSON` writes it.

    Finite floats, strings and ints take the encoder's own formatting
    (``float.__repr__``, ASCII-escaped strings, ``int.__repr__``)
    directly; anything else, a NaN or an infinity included, goes
    through the encoder.
    """
    cls = value.__class__
    if cls is float:
        if isfinite(value):
            return float.__repr__(value)
    elif cls is str:
        return encode_basestring_ascii(value)
    elif cls is int:
        return int.__repr__(value)
    return _SORTED_JSON.encode(value)


def emissions_digest(emissions: List[Emission]) -> str:
    """Order-sensitive SHA-256 over the full emission log.

    Hashes one sorted-key JSON line per emission, written field by
    field in the bytes ``_SORTED_JSON.encode(e.to_dict())`` gives.
    Byte-identical across reruns of the same seed, and across
    crash-resume vs. uninterrupted runs — the convergence oracle the
    soak asserts on.
    """
    blob = "".join([
        f'{{"at_s": {_json_scalar(e.at_s)}, "count": {_json_scalar(e.count)}, '
        f'"metric": {_json_scalar(e.metric)}, '
        f'"operator": {_json_scalar(e.operator)}, '
        f'"role": {_json_scalar(e.role)}, "value": {_json_scalar(e.value)}}}\n'
        for e in emissions
    ])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


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
        #: How many entries of each log the committed epochs hold; an
        #: epoch writes only the entries past these marks.
        self._emissions_saved = 0
        self._side_saved = 0
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
        if tags.__class__ is not tuple:
            tags = tuple(tags)
        watermark = self.watermark
        before_s = watermark.watermark_s
        t = record.event_time_s
        if t < before_s:
            if self.config.late_policy == "side":
                counters.late_side += 1
                if tags:
                    self._tag_outcome(tags, "late_side")
                self.side_channel.append(record)
            else:
                counters.late_dropped += 1
                if tags:
                    self._tag_outcome(tags, "late_dropped")
            return
        buffer = self.buffer
        buffer.push(record, tags)
        wm = watermark.observe(t)
        while buffer.overflowing:
            oldest = buffer.pop_oldest()
            wm = watermark.advance_floor(oldest[0].event_time_s)
            counters.forced_flushes += 1
            self._route((oldest,))
        if buffer.due(wm):
            self._route(buffer.release(wm))
        # Dedup already forgot every identity below ``before_s``; only
        # a watermark that moved can make it forget more.
        if wm > before_s:
            self.dedup.evict(wm)
        if (
            self._store is not None
            and self.clock.now() >= self._next_checkpoint_s
        ):
            self.checkpoint()

    def _route(self, released: Sequence[Released]) -> None:
        """Dedup and trust-gate ordered deliveries (each a record and
        its fault tags), then queue the survivors for the operators."""
        counters = self.counters
        seen = self.dedup.seen
        gate = self.trust_gate
        queue = self._to_operators
        capacity = queue.capacity
        for record, tags in released:
            if seen(record):
                counters.deduped += 1
                if tags:
                    self._tag_outcome(tags, "deduped")
                continue
            if gate is not None and gate.observe(record):
                counters.quarantined += 1
                if tags:
                    self._tag_outcome(tags, "quarantined")
                continue
            counters.aggregated += 1
            if tags:
                self._tag_outcome(tags, "aggregated")
            if len(queue) >= capacity:
                counters.backpressure_waits += 1
                # A mid-release drain may not use the global watermark:
                # records released after this one (same release sweep)
                # are not queued yet.  Records arrive here in event-time
                # order, so this record's own event time is the
                # tightest bound the operators can safely emit strictly
                # below.
                self._drain_operators(record.event_time_s)
            queue.append(record)

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
        self._queue_emissions(batch)

    def _queue_emissions(self, batch: List[Emission]) -> None:
        # All emissions in one drain lie in (previous wm, wm]; sorting
        # the merged batch therefore yields the same global sequence no
        # matter where backpressure happened to cut the drains — the
        # property that makes crash-resume digests byte-identical.
        batch.sort(key=_EMISSION_ORDER)
        queue = self._to_detector
        capacity = queue.capacity
        for emission in batch:
            if len(queue) >= capacity:
                self.counters.backpressure_waits += 1
                self._drain_detector()
            queue.append(emission)

    def _drain_detector(self) -> None:
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
                    self.detector.change_points[-1] = replace(
                        cp, suspect=True
                    )
        if self.journal is not None and emissions:
            self.journal.append(emissions)

    def pump(self) -> None:
        """Drain every queue (checkpoints and finish need empty queues)."""
        self._drain_operators()
        self._drain_detector()

    # -- checkpointing ----------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """One epoch: every stage whole, and of the two append-only logs
        only the entries past the ``emissions_from`` and
        ``side_channel_from`` entries the earlier epochs hold."""
        emissions_from = self._emissions_saved
        side_from = self._side_saved
        return {
            "counters": self.counters.counters_dict(),
            "watermark": self.watermark.state_dict(),
            "buffer": self.buffer.state_dict(),
            "dedup": self.dedup.state_dict(),
            "window_op": self.window_op.state_dict(),
            "decay_op": self.decay_op.state_dict(),
            "detector": self.detector.state_dict(),
            "emissions_from": emissions_from,
            "emissions": [
                e.to_dict() for e in self.emissions[emissions_from:]
            ],
            "side_channel_from": side_from,
            "side_channel": [
                r.to_dict() for r in self.side_channel[side_from:]
            ],
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
        """Fold one epoch in: its emissions and side-channel records
        extend the two logs, and its other sections replace this
        pipeline's.

        Raises :class:`ConfigError`, changing nothing, unless the logs
        hold exactly the ``emissions_from`` and ``side_channel_from``
        entries the epoch continues.
        """
        if (
            state.get("emissions_from") != len(self.emissions)
            or state.get("side_channel_from") != len(self.side_channel)
        ):
            raise ConfigError(
                f"epoch {state.get('epoch')} does not continue the "
                f"{len(self.emissions)} emissions and "
                f"{len(self.side_channel)} side-channel records folded "
                "so far"
            )
        self.counters.load_state(state.get("counters", {}))
        self.watermark.load_state(state.get("watermark", {}))
        self.buffer.load_state(state.get("buffer", {}))
        self.dedup.load_state(state.get("dedup", {}))
        self.window_op.load_state(state.get("window_op", {}))
        self.decay_op.load_state(state.get("decay_op", {}))
        self.detector.load_state(state.get("detector", {}))
        self.emissions += [
            Emission.from_dict(e) for e in state.get("emissions", [])
        ]
        self.side_channel += [
            StreamRecord.from_dict(r)
            for r in state.get("side_channel", [])
        ]
        self._emissions_saved = len(self.emissions)
        self._side_saved = len(self.side_channel)
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
        self._emissions_saved = len(self.emissions)
        self._side_saved = len(self.side_channel)
        return self._epoch

    @classmethod
    def resume(
        cls,
        config: StreamConfig,
        checkpoint_dir: PathLike,
        journal: Optional[StreamJournal] = None,
        trust_gate: Optional[Any] = None,
    ) -> Tuple["StreamPipeline", int]:
        """Rebuild a pipeline from its committed epochs.

        Each epoch holds the emissions and side-channel records since
        the one before it, so the epochs fold in index order from the
        first.  The fold stops at the first epoch that fails
        verification or does not continue the logs folded so far, and
        the pipeline resumes from the last epoch it folded; with none
        (a torn first epoch, say) this raises :class:`ConfigError`.

        Returns ``(pipeline, cursor)`` where ``cursor`` is the number of
        deliveries that epoch had already ingested — the caller
        replays the arrival sequence from that index and the result
        converges byte-identically to an uninterrupted run.  The
        journal, when given, is atomically truncated to the emissions
        the checkpoint vouches for, so resumption re-emits nothing.
        """
        store = CheckpointStore(checkpoint_dir, run_key=config.fingerprint())
        pipeline = cls(
            config,
            checkpoint_dir=checkpoint_dir,
            journal=journal,
            trust_gate=trust_gate,
        )
        state: Optional[Dict[str, Any]] = None
        for epoch in store.completed_indices():
            records = store.load(Shard(index=epoch, start=0, stop=0))
            if not records:
                break
            try:
                pipeline.load_state(records[0])
            except ConfigError:
                break
            state = records[0]
        if state is None:
            raise ConfigError(
                f"no resumable checkpoint under {checkpoint_dir}"
            )
        pipeline.clock = ManualClock(start=float(state.get("clock_s", 0.0)))
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
        self._route(self.buffer.release(final_wm))
        self.pump()
        # In-stream drains are strictly-before-watermark; the stream is
        # over now, so close the boundary inclusively: complete windows
        # ending exactly at the last event time, and the final grid
        # samples.
        batch = self.window_op.flush(final_wm)
        batch += self.decay_op.flush(final_wm)
        self._queue_emissions(batch)
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

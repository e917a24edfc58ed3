"""Fault-tolerant streaming ingestion for USaaS (ROADMAP item 2).

Turns the batch repro into a live service: generators emit
:class:`StreamRecord` objects in event-time order, a seeded
:meth:`~repro.resilience.faults.FaultPlan.stream_faults` arrival process
reorders / duplicates / delays them, and a :class:`StreamPipeline` of
incremental operators keeps sliding-window and exponentially-decayed
aggregates current while an online change-point detector answers "what
changed for users in the last hour" — with root-cause attribution to
the network metric that moved first.

The robustness core, in one place:

* **watermarks** with a bounded out-of-order buffer and an explicit
  late-record policy (:mod:`repro.streaming.watermark`);
* **duplicate suppression** keyed on the record fingerprint scheme
  (:mod:`repro.streaming.dedup`);
* **bounded queues with backpressure** between pipeline stages;
* **checkpointed operator state** via
  :class:`~repro.perf.checkpoint.CheckpointStore` — crash mid-stream,
  resume, and converge to byte-identical aggregates per seed;
* a **deterministic stream soak** asserting exact-once ledger closure
  (:mod:`repro.streaming.soak`).
"""

from repro.streaming.detector import (
    ChangePoint,
    OnlineChangePointDetector,
)
from repro.streaming.dedup import DedupFilter
from repro.streaming.journal import StreamJournal
from repro.streaming.operators import (
    DecayedAggregate,
    Emission,
    SlidingWindowAggregate,
)
from repro.streaming.pipeline import (
    StreamConfig,
    StreamCounters,
    StreamPipeline,
    StreamResult,
)
from repro.streaming.records import StreamRecord, record_fingerprint
from repro.streaming.soak import (
    DegradationSpec,
    StreamSoakReport,
    run_stream_soak,
)
from repro.streaming.sources import synthetic_stream
from repro.streaming.watermark import ReorderBuffer, WatermarkTracker

__all__ = [
    "ChangePoint",
    "DecayedAggregate",
    "DedupFilter",
    "DegradationSpec",
    "Emission",
    "OnlineChangePointDetector",
    "ReorderBuffer",
    "SlidingWindowAggregate",
    "StreamConfig",
    "StreamCounters",
    "StreamJournal",
    "StreamPipeline",
    "StreamRecord",
    "StreamResult",
    "StreamSoakReport",
    "record_fingerprint",
    "run_stream_soak",
    "synthetic_stream",
]

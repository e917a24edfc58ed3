"""The deterministic stream soak: chaos in, closed ledger out.

Mirrors the serving-side ``run_soak``: a seeded synthetic stream is
mangled by :meth:`~repro.resilience.faults.FaultPlan.stream_faults`
(delay / reorder / skew / gap-burst / duplication), optionally crashed
and resumed mid-flight, and driven through a :class:`StreamPipeline` on
a :class:`~repro.resilience.clock.ManualClock` — simulated time, zero
wall-clock cost.  The report asserts three things:

* the **exactly-once ledger closes**: every delivery is aggregated,
  late or deduped — no silent loss, no double counting;
* the run is **byte-identical per seed**: same counters, same emission
  digest, every rerun — including reruns that crash and resume;
* the detector was not **blind**: each injected degradation must be
  answered by an experience change point within its scoring horizon.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple, Union

from repro import rng as rng_mod
from repro.errors import ConfigError
from repro.resilience.clock import ManualClock
from repro.resilience.faults import FaultPlan, StreamFaultSpec
from repro.streaming.detector import ChangePoint
from repro.streaming.journal import StreamJournal
from repro.streaming.pipeline import (
    StreamConfig,
    StreamPipeline,
    StreamResult,
)
from repro.streaming.sources import (
    DegradationSpec,
    default_degradations,
    synthetic_stream,
)
from repro.verdict import Verdict

PathLike = Union[str, Path]

#: The default arrival chaos a soak applies when the caller gives none.
DEFAULT_STREAM_FAULTS = StreamFaultSpec(
    base_delay_s=2.0,
    reorder_rate=0.25,
    reorder_extra_s=20.0,
    duplicate_rate=0.05,
    duplicate_delay_s=10.0,
)


@dataclass(frozen=True)
class StreamSoakReport:
    """Everything a rerun must reproduce byte-for-byte."""

    seed: int
    duration_s: float
    n_records: int
    n_deliveries: int
    counters: Dict[str, int]
    digest: str
    change_points: Tuple[ChangePoint, ...]
    degradations: Tuple[DegradationSpec, ...]
    detected: int
    crashes: int
    #: fault kind -> terminal bucket -> count: where each injected
    #: delivery kind (duplicate / reorder / skew / gap) actually landed
    #: (aggregated / deduped / late_* / quarantined).
    fault_outcomes: Dict[str, Dict[str, int]] = field(default_factory=dict)

    @property
    def accounted(self) -> int:
        c = self.counters
        return (
            c["aggregated"] + c["late_dropped"]
            + c["late_side"] + c["deduped"]
            + c.get("quarantined", 0)
        )

    @property
    def ledger_closed(self) -> bool:
        return self.counters["emitted"] == self.accounted

    @property
    def blind_rate(self) -> float:
        """Fraction of injected degradations the detector never saw."""
        if not self.degradations:
            return 0.0
        return 1.0 - self.detected / len(self.degradations)

    def verdict(self, blind_threshold: float = 0.0) -> Verdict:
        """Exit 3 when the detector missed more than ``blind_threshold``
        of the injected degradations.

        An open ledger never reaches a report: ``StreamPipeline.finish``
        raises :class:`~repro.errors.LedgerViolationError` first.
        """
        if self.blind_rate > blind_threshold:
            return Verdict(3, (
                f"detector blind: {self.detected}/"
                f"{len(self.degradations)} injected degradations "
                f"detected (blind rate {self.blind_rate:.2f} > "
                f"{blind_threshold:.2f})",
            ))
        return Verdict()

    def counters_dict(self) -> Dict[str, int]:
        merged = dict(self.counters)
        merged["n_records"] = self.n_records
        merged["n_deliveries"] = self.n_deliveries
        merged["detected"] = self.detected
        merged["crashes"] = self.crashes
        for kind in sorted(self.fault_outcomes):
            for bucket in sorted(self.fault_outcomes[kind]):
                merged[f"fault.{kind}.{bucket}"] = (
                    self.fault_outcomes[kind][bucket]
                )
        return merged

    def summary(self) -> str:
        c = self.counters
        return (
            f"[stream-soak] seed={self.seed} "
            f"deliveries={self.n_deliveries} emitted={c['emitted']} "
            f"aggregated={c['aggregated']} "
            f"late={c['late_dropped'] + c['late_side']} "
            f"deduped={c['deduped']} "
            f"quarantined={c.get('quarantined', 0)} "
            f"forced={c['forced_flushes']} "
            f"cps={c['change_points']} crashes={self.crashes} "
            f"detected={self.detected}/{len(self.degradations)} "
            f"ledger={'closed' if self.ledger_closed else 'VIOLATED'} "
            f"digest={self.digest[:12]}"
        )


def _count_detected(
    degradations: Sequence[DegradationSpec],
    change_points: Sequence[ChangePoint],
) -> int:
    """Degradations answered by an experience CP inside their horizon."""
    detected = 0
    for spec in degradations:
        for cp in change_points:
            if cp.role != "experience":
                continue
            if spec.at_s <= cp.at_s <= spec.at_s + spec.detect_within_s:
                detected += 1
                break
    return detected


def run_stream_soak(
    seed: int = rng_mod.DEFAULT_SEED,
    duration_s: float = 600.0,
    rate_per_s: float = 8.0,
    faults: Optional[StreamFaultSpec] = None,
    degradations: Optional[Sequence[DegradationSpec]] = None,
    config: Optional[StreamConfig] = None,
    checkpoint_dir: Optional[PathLike] = None,
    journal_path: Optional[PathLike] = None,
    gate_kwargs: Optional[Dict[str, float]] = None,
) -> StreamSoakReport:
    """Run one deterministic stream soak end to end.

    ``faults.crash_at_s`` instants kill the pipeline mid-stream; it is
    rebuilt from its latest checkpoint (or from scratch when none was
    committed yet) and the arrival schedule replays from the
    checkpoint's cursor — the report's digest is asserted equal whether
    or not the crash happened, which is the crash-consistency claim in
    executable form.

    ``gate_kwargs``, when given, runs the pipeline behind an
    :class:`~repro.integrity.online.OnlineTrustGate` built with those
    keyword arguments (a fresh instance per (re)start; its state rides
    the checkpoint), so quarantine counters appear in the ledger.
    """
    spec = DEFAULT_STREAM_FAULTS if faults is None else faults
    if degradations is None:
        degradations = default_degradations(duration_s)
    degradations = tuple(degradations)
    if config is None:
        config = StreamConfig(seed=seed)
    records = synthetic_stream(
        seed=seed, duration_s=duration_s, rate_per_s=rate_per_s,
        degradations=degradations,
    )
    plan = FaultPlan(seed=seed)
    deliveries = plan.stream_faults("stream-soak", records, spec)
    crashes = sorted(spec.crash_at_s)
    tmp: Optional[tempfile.TemporaryDirectory] = None
    if crashes and checkpoint_dir is None:
        # Crash/resume needs somewhere durable for epochs; results do
        # not depend on the path, so an ephemeral directory is fine.
        tmp = tempfile.TemporaryDirectory(prefix="stream-soak-ckpt-")
        checkpoint_dir = tmp.name
    journal = (
        StreamJournal(journal_path) if journal_path is not None else None
    )

    def make_gate():
        if gate_kwargs is None:
            return None
        from repro.integrity.online import OnlineTrustGate

        return OnlineTrustGate(**gate_kwargs)

    try:
        pipeline = StreamPipeline(
            config,
            clock=ManualClock(),
            checkpoint_dir=checkpoint_dir,
            journal=journal,
            trust_gate=make_gate(),
        )
        n_crashes = 0
        idx = 0
        while idx < len(deliveries):
            delivery = deliveries[idx]
            if crashes and delivery.at_s >= crashes[0]:
                # The consumer dies before this delivery is processed.
                crashes.pop(0)
                n_crashes += 1
                plan.log.append(("stream-soak", "crash"))
                try:
                    pipeline, idx = StreamPipeline.resume(
                        config, checkpoint_dir, journal=journal,
                        trust_gate=make_gate(),
                    )
                except ConfigError:
                    # Crashed before the first checkpoint: start over.
                    pipeline = StreamPipeline(
                        config,
                        clock=ManualClock(),
                        checkpoint_dir=checkpoint_dir,
                        journal=journal,
                        trust_gate=make_gate(),
                    )
                    if journal is not None:
                        journal.rewrite([])
                    idx = 0
                continue
            gap = delivery.at_s - pipeline.clock.now()
            if gap > 0:
                pipeline.clock.advance(gap)
            pipeline.ingest(delivery.record, tags=delivery.injected)
            idx += 1
        result: StreamResult = pipeline.finish()
        fault_outcomes = {
            kind: dict(buckets)
            for kind, buckets in pipeline.fault_outcomes.items()
        }
    finally:
        if tmp is not None:
            tmp.cleanup()
    detected = _count_detected(degradations, result.change_points)
    return StreamSoakReport(
        seed=seed,
        duration_s=duration_s,
        n_records=len(records),
        n_deliveries=len(deliveries),
        counters=result.counters,
        digest=result.digest,
        change_points=result.change_points,
        degradations=degradations,
        detected=detected,
        crashes=n_crashes,
        fault_outcomes=fault_outcomes,
    )

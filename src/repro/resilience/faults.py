"""Deterministic chaos: seeded fault injection for sources and records.

A :class:`FaultPlan` wraps any source callable so that calls fail or
stall, and contaminates datasets and streams, on a schedule derived from
``repro.rng`` — the same seed always produces the same fault sequence,
which is what lets the chaos suite assert byte-identical health records
across runs.  Simulated slowness advances a
:class:`~repro.resilience.clock.ManualClock` instead of sleeping, so a
"30-second hang" costs the test suite nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro import rng as rng_mod
from repro.errors import ConfigError, ReproError
from repro.resilience.clock import ManualClock


class InjectedFault(ReproError):
    """The exception a fault plan raises for an injected failure."""


@dataclass(frozen=True)
class FaultSpec:
    """How one wrapped source should misbehave.

    Per call, one uniform draw picks the action: ``fail`` with
    probability ``fail_rate``, else ``slow`` with probability
    ``slow_rate``, else the call proceeds normally.
    """

    fail_rate: float = 0.0
    slow_rate: float = 0.0
    slow_s: float = 0.0

    def __post_init__(self) -> None:
        for name in ("fail_rate", "slow_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1]")
        if self.fail_rate + self.slow_rate > 1.0:
            raise ConfigError("fail_rate + slow_rate must be <= 1")
        if self.slow_s < 0:
            raise ConfigError("slow_s must be non-negative")


ALWAYS_FAIL = FaultSpec(fail_rate=1.0)


@dataclass(frozen=True)
class Arrival:
    """One scheduled query arrival in a load-spike plan."""

    at_s: float
    priority: str = "interactive"
    deadline_s: Optional[float] = None


def pick_weighted(mix: Tuple[Tuple[str, float], ...], u: float) -> str:
    """Map a uniform draw in [0, 1) to a weighted choice from ``mix``."""
    total = sum(w for _, w in mix)
    cumulative = 0.0
    for name, weight in mix:
        cumulative += weight / total
        if u < cumulative:
            return name
    return mix[-1][0]


@dataclass(frozen=True)
class LoadSpikeSpec:
    """One burst of Poisson-ish query arrivals.

    Inter-arrival gaps are exponential draws (mean ``1 / rate_per_s``)
    from the plan's seeded substream, so a spec at five times a server's
    capacity produces a *deterministic* overload: the same seed yields
    the same arrival times, priorities and, therefore, the same shed
    set.  ``priority_mix`` weights the admission classes each arrival is
    drawn from; ``deadline_s`` attaches a per-query budget.
    """

    rate_per_s: float
    duration_s: float
    start_s: float = 0.0
    priority_mix: Tuple[Tuple[str, float], ...] = (("interactive", 1.0),)
    deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.rate_per_s <= 0:
            raise ConfigError("rate_per_s must be positive")
        if self.duration_s <= 0:
            raise ConfigError("duration_s must be positive")
        if self.start_s < 0:
            raise ConfigError("start_s must be non-negative")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ConfigError("deadline_s must be positive")
        if not self.priority_mix:
            raise ConfigError("priority_mix must not be empty")
        for name, weight in self.priority_mix:
            if not name or weight < 0:
                raise ConfigError(
                    "priority_mix entries must be (name, weight >= 0)"
                )
        if sum(w for _, w in self.priority_mix) <= 0:
            raise ConfigError("priority_mix weights must sum to > 0")

    def pick_priority(self, u: float) -> str:
        """Map a uniform draw in [0, 1) to a priority class."""
        return pick_weighted(self.priority_mix, u)

@dataclass(frozen=True)
class StreamFaultSpec:
    """The arrival pathologies of a measurement stream, made schedulable.

    Event times are sacred — faults only ever distort *delivery*:

    * every record is delayed by a uniform draw in
      ``[0, base_delay_s)`` (network transit);
    * with probability ``reorder_rate`` a record picks up an extra
      uniform delay in ``[0, reorder_extra_s)`` — enough of these and
      arrivals cross, which is what exercises the reorder buffer;
    * ``skew_windows`` — ``(start_s, duration_s, skew_s)`` triples: a
      record whose *event time* falls in the window is delivered
      ``skew_s`` later, modelling a clock-skewed source whose stamps
      lag its transmissions;
    * ``gap_windows`` — ``(start_s, duration_s)`` pairs: deliveries
      that would land inside the window are held and released together
      at its end — an outage followed by the burst that drains it;
    * with probability ``duplicate_rate`` the record is delivered a
      second time after an extra uniform delay in
      ``[0, duplicate_delay_s)`` (at-least-once transport);
    * ``crash_at_s`` — consumer crash instants; the fault plan only
      records them (the soak driver kills and resumes the pipeline).
    """

    base_delay_s: float = 0.5
    reorder_rate: float = 0.0
    reorder_extra_s: float = 0.0
    duplicate_rate: float = 0.0
    duplicate_delay_s: float = 5.0
    skew_windows: Tuple[Tuple[float, float, float], ...] = ()
    gap_windows: Tuple[Tuple[float, float], ...] = ()
    crash_at_s: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        for name in ("reorder_rate", "duplicate_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1]")
        for name in ("base_delay_s", "reorder_extra_s", "duplicate_delay_s"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        if self.reorder_rate > 0 and self.reorder_extra_s <= 0:
            raise ConfigError("reorder faults need reorder_extra_s > 0")
        for window in self.skew_windows:
            if len(window) != 3:
                raise ConfigError(
                    "skew_windows entries must be (start_s, duration_s, skew_s)"
                )
            start, duration, skew = window
            if start < 0 or duration <= 0 or skew <= 0:
                raise ConfigError(
                    "skew windows need start_s >= 0, duration_s > 0, skew_s > 0"
                )
        for window in self.gap_windows:
            if len(window) != 2:
                raise ConfigError(
                    "gap_windows entries must be (start_s, duration_s)"
                )
            start, duration = window
            if start < 0 or duration <= 0:
                raise ConfigError(
                    "gap windows need start_s >= 0 and duration_s > 0"
                )
        for at in self.crash_at_s:
            if at <= 0:
                raise ConfigError("crash_at_s entries must be positive")


@dataclass(frozen=True)
class StreamDelivery:
    """One record arriving at the pipeline, possibly mangled en route.

    ``seq`` is the global delivery sequence (ties in ``at_s`` resolve by
    it, so the schedule is a total order); ``injected`` names the faults
    that shaped this delivery; ``duplicate`` marks a redelivery of a
    record already scheduled once.
    """

    at_s: float
    record: Any
    seq: int
    injected: Tuple[str, ...] = ()
    duplicate: bool = False


#: Seeded days a brigade concentrates on.
BRIGADE_DAYS = 3
#: Bot accounts that author a brigade's posts.
RING_SIZE = 3
#: Brigade templates the ring cycles, from the front of
#: :data:`BRIGADE_TEMPLATES`.
TEMPLATE_COUNT = 2
#: Shill accounts that rating-fraud sessions are rewritten to.
FRAUD_COHORT = 4


@dataclass(frozen=True)
class DataFaultSpec:
    """Adversarial *data* faults: the signals themselves lie.

    Where every other spec in this module breaks infrastructure, this
    one contaminates content — the crowdsourced-QoE threat model.  All
    knobs default off; each family is applied as a pure transform of a
    clean artifact (corpus / call dataset / stream), with every draw
    taken from the plan's seeded substream, so clean and contaminated
    runs are byte-reproducible per seed.

    * **brigade** — ``brigade_fraction`` of the corpus size is injected
      as near-duplicate strongly-negative spam posts, written by a bot
      ring of :data:`RING_SIZE` authors cycling :data:`TEMPLATE_COUNT`
      template texts, concentrated on :data:`BRIGADE_DAYS` seeded days;
    * **rating fraud** — each session is overwritten with probability
      ``fraud_fraction``: its rating becomes ``fraud_rating`` and its
      author one of :data:`FRAUD_COHORT` shill accounts;
    * **sensor drift** — each (non-fraud) session drifts with
      probability ``drift_fraction``: every aggregate of
      ``drift_metric`` gains ``drift_bias``;
    * **stream boundary** — each stream record is dropped with
      probability ``drop_rate`` or malformed (missing / non-numeric /
      negative fields) with probability ``malform_rate``.
    """

    brigade_fraction: float = 0.0
    fraud_fraction: float = 0.0
    fraud_rating: int = 1
    drift_fraction: float = 0.0
    drift_metric: str = "latency_ms"
    drift_bias: float = 40.0
    malform_rate: float = 0.0
    drop_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "brigade_fraction", "fraud_fraction", "drift_fraction",
            "malform_rate", "drop_rate",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1]")
        if self.malform_rate + self.drop_rate > 1.0:
            raise ConfigError("malform_rate + drop_rate must be <= 1")
        if self.fraud_rating not in (1, 2, 3, 4, 5):
            raise ConfigError("fraud_rating must be a 1-5 star value")
        if not self.drift_metric:
            raise ConfigError("drift_metric must be non-empty")


@dataclass(frozen=True)
class ContaminatedCorpus:
    """A corpus with brigade spam injected, plus the ground truth."""

    corpus: Any
    injected_post_ids: Tuple[str, ...]
    ring_authors: Tuple[str, ...]

    @property
    def n_injected(self) -> int:
        return len(self.injected_post_ids)


@dataclass(frozen=True)
class ContaminatedCalls:
    """A call dataset with fraud/drift applied, plus the ground truth.

    ``fraud_sessions`` / ``drifted_sessions`` are ``(call_id, user_id)``
    pairs identifying exactly which sessions were rewritten.
    """

    dataset: Any
    fraud_users: Tuple[str, ...]
    fraud_sessions: Tuple[Tuple[str, str], ...]
    drifted_sessions: Tuple[Tuple[str, str], ...]


@dataclass(frozen=True)
class MangledStream:
    """Stream-boundary fault output: raw dicts, some mangled or gone."""

    records: Tuple[dict, ...]
    dropped: int
    malformed: int


#: The spam a brigade posts: strongly negative under the offline
#: lexicon, repetitive by design (duplicate-text fingerprinting is one
#: of the trust signals the integrity layer must exercise).
BRIGADE_TEMPLATES: Tuple[Tuple[str, str], ...] = (
    ("service is garbage again",
     "Completely unusable tonight. Terrible latency, terrible speeds, "
     "absolutely the worst connection I have ever paid for!!"),
    ("this network is a scam",
     "Horrible. Awful. Useless. Every single call drops and support is "
     "a joke. Total garbage, do not buy!!"),
    ("worst provider ever",
     "Unusable and broken for days. Pathetic speeds, terrible support, "
     "an absolutely horrible waste of money!!"),
    ("cancel this trash",
     "Garbage uptime, awful latency, worst experience imaginable. "
     "Completely broken and totally unacceptable!!"),
)


class DataFaultInjector:
    """The corpus/stream contamination seam of a :class:`FaultPlan`.

    Produced by :meth:`FaultPlan.data_faults`.  Every method is a pure
    transform — the clean input is never mutated — and every random
    choice comes from the plan's seeded substreams for ``name``, so the
    same plan contaminates the same artifacts identically, which is
    what lets the ε-contamination soak pin its counters byte-for-byte.
    """

    def __init__(self, plan: "FaultPlan", name: str, spec: DataFaultSpec) -> None:
        self._plan = plan
        self._name = name
        self.spec = spec

    def contaminate_corpus(self, corpus: Any) -> ContaminatedCorpus:
        """Inject a seeded brigade of template spam into a corpus.

        Returns a *new* corpus (same config) holding the clean posts
        plus ``round(brigade_fraction * len(corpus))`` injected ones,
        concentrated on :data:`BRIGADE_DAYS` seeded days and authored by
        a :data:`RING_SIZE` bot ring cycling :data:`TEMPLATE_COUNT`
        templates.
        """
        import datetime as dt

        from repro.social.corpus import RedditCorpus
        from repro.social.schema import Post

        spec = self.spec
        n_inject = int(round(spec.brigade_fraction * len(corpus)))
        clean_posts = corpus.posts()
        if n_inject == 0:
            self._plan.log.append((self._name, "data.brigade.0"))
            return ContaminatedCorpus(
                corpus=RedditCorpus(clean_posts, corpus.config),
                injected_post_ids=(), ring_authors=(),
            )
        stream = self._plan._stream(self._name + "#brigade")
        config = corpus.config
        span_days = (config.span_end - config.span_start).days + 1
        day_offsets: List[int] = []
        while len(day_offsets) < min(BRIGADE_DAYS, span_days):
            offset = int(float(stream.random()) * span_days)
            if offset not in day_offsets:
                day_offsets.append(offset)
        templates = BRIGADE_TEMPLATES[:TEMPLATE_COUNT]
        ring = tuple(
            f"{self._name}-ring-{j}" for j in range(RING_SIZE)
        )
        injected: List[Post] = []
        for i in range(n_inject):
            day = day_offsets[int(float(stream.random()) * len(day_offsets))]
            second = int(float(stream.random()) * 86400)
            title, text = templates[i % len(templates)]
            injected.append(Post(
                post_id=f"{self._name}-brigade-{i:05d}",
                created=(
                    dt.datetime.combine(
                        config.span_start, dt.time.min
                    ) + dt.timedelta(days=day, seconds=second)
                ),
                author=ring[i % len(ring)],
                title=title,
                text=text,
                upvotes=int(float(stream.random()) * 3),
                n_comments=0,
                topic="outage_report",
            ))
        self._plan.log.append((self._name, f"data.brigade.{n_inject}"))
        return ContaminatedCorpus(
            corpus=RedditCorpus(clean_posts + injected, config),
            injected_post_ids=tuple(p.post_id for p in injected),
            ring_authors=ring,
        )

    def contaminate_calls(self, dataset: Any) -> ContaminatedCalls:
        """Apply rating fraud and sensor drift to a call dataset.

        Fraud rewrites a session's rating to ``fraud_rating`` and its
        author to one of :data:`FRAUD_COHORT` shill handles; drift adds
        ``drift_bias`` to every aggregate of ``drift_metric``.  Both
        are per-session seeded coin flips over a *new* dataset — clean
        records are reused, rewritten ones rebuilt via ``replace``.
        """
        from dataclasses import replace

        from repro.telemetry.store import CallDataset

        spec = self.spec
        stream = self._plan._stream(self._name + "#calls")
        fraud_users = tuple(
            f"{self._name}-shill-{k}" for k in range(FRAUD_COHORT)
        )
        fraud_sessions: List[Tuple[str, str]] = []
        drifted_sessions: List[Tuple[str, str]] = []
        new_calls = []
        for call in dataset:
            participants = []
            changed = False
            for p in call.participants:
                if (
                    spec.fraud_fraction > 0
                    and float(stream.random()) < spec.fraud_fraction
                ):
                    shill = fraud_users[
                        int(float(stream.random()) * len(fraud_users))
                    ]
                    p = replace(p, rating=spec.fraud_rating, user_id=shill)
                    fraud_sessions.append((call.call_id, p.user_id))
                    changed = True
                elif (
                    spec.drift_fraction > 0
                    and float(stream.random()) < spec.drift_fraction
                ):
                    network = {
                        metric: dict(stats)
                        for metric, stats in p.network.items()
                    }
                    if spec.drift_metric in network:
                        network[spec.drift_metric] = {
                            stat: value + spec.drift_bias
                            for stat, value in network[spec.drift_metric].items()
                        }
                    p = replace(p, network=network)
                    drifted_sessions.append((call.call_id, p.user_id))
                    changed = True
                participants.append(p)
            new_calls.append(
                replace(call, participants=participants) if changed else call
            )
        self._plan.log.append((
            self._name,
            f"data.calls.fraud{len(fraud_sessions)}"
            f".drift{len(drifted_sessions)}",
        ))
        return ContaminatedCalls(
            dataset=CallDataset(new_calls),
            fraud_users=fraud_users,
            fraud_sessions=tuple(fraud_sessions),
            drifted_sessions=tuple(drifted_sessions),
        )

    def mangle_stream(self, records: Iterable[Any]) -> MangledStream:
        """Mangle stream records at the ingestion boundary.

        Each record (a dict, or anything with ``to_dict``) is dropped with
        probability ``drop_rate``, malformed with probability
        ``malform_rate`` (a seeded pick among: value field missing,
        value non-numeric, event time negative, metric missing), else
        passed through intact — always as raw dicts, the wire form a
        boundary parser must validate before trusting.
        """
        spec = self.spec
        stream = self._plan._stream(self._name + "#boundary")
        out: List[dict] = []
        dropped = 0
        malformed = 0
        for record in records:
            u = float(stream.random())
            if u < spec.drop_rate:
                dropped += 1
                continue
            data = dict(
                record if isinstance(record, dict) else record.to_dict()
            )
            if u < spec.drop_rate + spec.malform_rate:
                mode = int(float(stream.random()) * 4)
                if mode == 0:
                    data.pop("value", None)
                elif mode == 1:
                    data["value"] = "not-a-number"
                elif mode == 2:
                    data["event_time_s"] = -abs(
                        float(data.get("event_time_s", 1.0))
                    ) - 1.0
                else:
                    data.pop("metric", None)
                malformed += 1
            out.append(data)
        self._plan.log.append((
            self._name,
            f"data.boundary.drop{dropped}.malform{malformed}",
        ))
        return MangledStream(
            records=tuple(out), dropped=dropped, malformed=malformed
        )


def always_slow(slow_s: float) -> FaultSpec:
    """A spec that stalls every call for ``slow_s`` simulated seconds."""
    return FaultSpec(slow_rate=1.0, slow_s=slow_s)


class FaultPlan:
    """Seeded fault schedules for any number of named targets.

    >>> clock = ManualClock()
    >>> plan = FaultPlan(seed=7, clock=clock)
    >>> flaky = plan.wrap_source("feed", lambda: 42,
    ...                          FaultSpec(fail_rate=0.5))
    """

    def __init__(self, seed: int, clock: Optional[ManualClock] = None) -> None:
        self.seed = int(seed)
        self.clock = clock or ManualClock()
        self.log: List[Tuple[str, str]] = []
        self._streams: dict = {}

    def _stream(self, name: str):
        if name not in self._streams:
            self._streams[name] = rng_mod.derive(
                self.seed, "resilience.faults", name
            )
        return self._streams[name]

    def _action(self, name: str, spec: FaultSpec) -> str:
        u = float(self._stream(name).random())
        if u < spec.fail_rate:
            return "fail"
        if u < spec.fail_rate + spec.slow_rate:
            return "slow"
        return "ok"

    def wrap_source(
        self,
        name: str,
        fn: Callable[[], Any],
        spec: FaultSpec,
    ) -> Callable[[], Any]:
        """Wrap a source callable with this plan's schedule for ``name``."""

        def wrapped() -> Any:
            action = self._action(name, spec)
            self.log.append((name, action))
            if action == "fail":
                raise InjectedFault(f"injected failure in source {name!r}")
            if action == "slow":
                self.clock.advance(spec.slow_s)
            return fn()

        return wrapped

    def data_faults(
        self, name: str, spec: DataFaultSpec
    ) -> DataFaultInjector:
        """The adversarial-content seam: contaminate data, not processes.

        Returns a :class:`DataFaultInjector` whose transforms inject
        brigade spam into a corpus, rating fraud / sensor drift into a
        call dataset, and malformed or dropped fields into a stream —
        all from this plan's seeded substreams for ``name``, so a soak
        can pin the contaminated artifacts byte-for-byte per seed.
        """
        return DataFaultInjector(self, name, spec)

    def load_spikes(
        self, name: str, *specs: LoadSpikeSpec
    ) -> Tuple[Arrival, ...]:
        """Deterministic arrival schedule for the serving soak harness.

        Each spec contributes a Poisson-ish burst (exponential gaps from
        this plan's seeded substream for ``name``); overlapping bursts
        are merged into one time-ordered tuple.  The same seed always
        produces the same schedule — which is what lets the soak test
        assert identical per-class counters across runs.
        """
        if not specs:
            raise ConfigError("load_spikes needs at least one spec")
        stream = self._stream(name + "#load")
        arrivals: List[Arrival] = []
        for spec in specs:
            t = spec.start_s
            while True:
                t += float(stream.exponential(1.0 / spec.rate_per_s))
                if t > spec.start_s + spec.duration_s:
                    break
                arrivals.append(Arrival(
                    at_s=t,
                    priority=spec.pick_priority(float(stream.random())),
                    deadline_s=spec.deadline_s,
                ))
        arrivals.sort(key=lambda a: (a.at_s, a.priority))
        self.log.append((name, f"load_spikes.{len(arrivals)}"))
        return tuple(arrivals)

    def stream_faults(
        self, name: str, records: Iterable[Any], spec: StreamFaultSpec
    ) -> Tuple[StreamDelivery, ...]:
        """Turn an event-time-ordered record list into an arrival schedule.

        Each record (any object with an ``event_time_s`` attribute) is
        assigned a delivery time by applying the spec's delay, reorder,
        skew, gap and duplication faults, with every draw taken from
        this plan's seeded substream for ``name`` — the same seed always
        mangles the stream the same way, so a soak can assert exact
        late/duplicate counts.  The result is sorted by
        ``(at_s, seq)``: arrival order, totally ordered.
        """

        def held(at_s: float) -> float:
            for start, duration in spec.gap_windows:
                if start <= at_s < start + duration:
                    return start + duration
            return at_s

        stream = self._stream(name + "#stream")
        deliveries: List[StreamDelivery] = []
        seq = 0
        for record in records:
            t = float(record.event_time_s)
            delay = float(stream.random()) * spec.base_delay_s
            injected: List[str] = []
            if (
                spec.reorder_rate > 0
                and float(stream.random()) < spec.reorder_rate
            ):
                delay += float(stream.random()) * spec.reorder_extra_s
                injected.append("reorder")
            for start, duration, skew in spec.skew_windows:
                if start <= t < start + duration:
                    delay += skew
                    injected.append("skew")
            at_s = t + delay
            if held(at_s) != at_s:
                at_s = held(at_s)
                injected.append("gap")
            deliveries.append(StreamDelivery(
                at_s=at_s, record=record, seq=seq,
                injected=tuple(injected),
            ))
            seq += 1
            if (
                spec.duplicate_rate > 0
                and float(stream.random()) < spec.duplicate_rate
            ):
                dup_at = at_s + (
                    float(stream.random()) * spec.duplicate_delay_s
                )
                dup_injected = ["duplicate"]
                if held(dup_at) != dup_at:
                    dup_at = held(dup_at)
                    dup_injected.append("gap")
                deliveries.append(StreamDelivery(
                    at_s=dup_at, record=record, seq=seq,
                    injected=tuple(dup_injected), duplicate=True,
                ))
                seq += 1
        deliveries.sort(key=lambda d: (d.at_s, d.seq))
        self.log.append((name, f"stream_faults.{len(deliveries)}"))
        return tuple(deliveries)

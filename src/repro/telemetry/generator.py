"""End-to-end call-dataset generation.

Pipeline per call:

1. :class:`~repro.telemetry.meetings.MeetingScheduler` draws when the
   meeting happens, how long it is booked for and who attends.
2. For every participant, :class:`~repro.telemetry.network_profiles.ProfileSampler`
   draws a network path and :func:`~repro.netsim.trace.generate_condition_arrays`
   produces the five-second condition stream.
3. The platform's mitigation stack and the QoE model turn conditions into
   experienced quality (vectorised).
4. :class:`~repro.telemetry.behavior.BehaviorModel` runs the user agent,
   yielding attendance, mic and camera behaviour.
5. The client computes its end-of-session aggregates over the *attended*
   prefix of the trace — exactly the telemetry §3.1 describes — and
   :class:`~repro.telemetry.feedback.FeedbackModel` occasionally collects
   a star rating.
6. Presence is computed per call (duration relative to the call's median
   participant duration, capped at 100).
"""

from __future__ import annotations

import datetime as dt
import re
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional

import numpy as np

from repro.errors import ConfigError
from repro.netsim.link import LinkProfile
from repro.netsim.qoe import QoeModel
from repro.netsim.trace import SAMPLE_INTERVAL_S, generate_condition_arrays
from repro.netsim.vectorized import mitigate_arrays, qoe_arrays
from repro.rng import DEFAULT_SEED, derive
from repro.telemetry.behavior import BehaviorModel, BehaviorParams
from repro.telemetry.feedback import FeedbackModel
from repro.telemetry.meetings import Meeting, MeetingScheduler
from repro.telemetry.network_profiles import ProfileSampler
from repro.telemetry.platforms import PLATFORMS, Platform
from repro.telemetry.schema import CallRecord, ParticipantRecord
from repro.telemetry.store import CallDataset

if TYPE_CHECKING:
    from repro.perf.cache import ArtifactCache


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs of the dataset generator.

    Attributes:
        n_calls: number of meetings to simulate.
        seed: root seed; every run with the same config is identical.
        decorrelate: metric independence of the network population
            (see :class:`ProfileSampler`).
        mos_sample_rate: fraction of sessions prompted for a rating.
        mitigation_enabled: the DESIGN.md ablation switch — when False
            every platform runs with the safeguards disabled and the
            Fig. 1 loss panel steepens.
        behavior: behaviour-engine coefficients.
        qoe: quality model.
        outage_days: optional map of calendar day → severity in (0, 1];
            every participant's path is degraded on those days (loss and
            latency scale with severity).  This is how the §5
            "corroboration" scenario injects a network incident whose
            implicit-signal signature USaaS can match against social
            chatter.
        workers: must be 1; any other value raises ``ConfigError``.
            Generation runs in-process, one call at a time, each on its
            own RNG substream (``derive(seed, "call", call_id)``).  The
            field is excluded from the artifact identity.
        persistent_users: draw meeting participants from a fixed
            :class:`~repro.telemetry.users.UserPopulation` whose
            conditioning *evolves* with experienced quality (§6's dynamic
            long-term conditioning); user ids are then stable across
            calls.  Off by default (the cross-sectional analyses don't
            need identity, and calls must be ordered in time for
            conditioning evolution to mean anything).
        population_size: size of the persistent population.
    """

    n_calls: int = 2000
    seed: int = DEFAULT_SEED
    decorrelate: float = 0.5
    mos_sample_rate: float = 0.005
    mitigation_enabled: bool = True
    behavior: BehaviorParams = field(default_factory=BehaviorParams)
    qoe: QoeModel = field(default_factory=QoeModel)
    outage_days: Mapping[dt.date, float] = field(default_factory=dict)
    persistent_users: bool = False
    population_size: int = 2000
    workers: int = 1

    def __post_init__(self) -> None:
        if self.n_calls < 0:
            raise ConfigError("n_calls must be non-negative")
        if self.workers != 1:
            raise ConfigError("workers must be 1 (generation is in-process)")
        if not 0 <= self.mos_sample_rate <= 1:
            raise ConfigError("mos_sample_rate must be in [0, 1]")
        for day, severity in self.outage_days.items():
            if not 0 < severity <= 1:
                raise ConfigError(
                    f"outage severity for {day} must be in (0, 1], "
                    f"got {severity}"
                )


class CallDatasetGenerator:
    """Generates a :class:`CallDataset` from a :class:`GeneratorConfig`."""

    def __init__(
        self,
        config: GeneratorConfig = GeneratorConfig(),
        scheduler: Optional[MeetingScheduler] = None,
        profiles: Optional[ProfileSampler] = None,
    ) -> None:
        self._config = config
        self._scheduler = scheduler or MeetingScheduler()
        self._profiles = profiles or ProfileSampler(decorrelate=config.decorrelate)
        self._behavior = BehaviorModel(config.behavior)
        self._feedback = FeedbackModel(sample_rate=config.mos_sample_rate)
        self._platform_keys = list(PLATFORMS)
        weights = np.array(
            [PLATFORMS[k].population_share for k in self._platform_keys]
        )
        self._platform_probs = weights / weights.sum()
        from repro.netsim.mitigation import MitigationStack

        if config.mitigation_enabled:
            self._stacks = {
                key: plat.mitigation_stack() for key, plat in PLATFORMS.items()
            }
        else:
            disabled = MitigationStack.disabled()
            self._stacks = {key: disabled for key in PLATFORMS}

    @property
    def config(self) -> GeneratorConfig:
        return self._config

    def _sample_platform(self, rng: np.random.Generator) -> Platform:
        return PLATFORMS[
            str(rng.choice(self._platform_keys, p=self._platform_probs))
        ]

    def _simulate_participant(
        self,
        rng: np.random.Generator,
        meeting: Meeting,
        index: int,
        forced_profile: Optional[LinkProfile] = None,
        forced_platform: Optional[Platform] = None,
        user: Optional["User"] = None,
    ) -> Dict:
        if user is not None:
            platform = user.platform
            profile = user.home_profile
        else:
            platform = forced_platform or self._sample_platform(rng)
            profile = forced_profile or self._profiles.sample(
                rng, is_mobile=platform.is_mobile
            )
        severity = self._config.outage_days.get(meeting.start.date(), 0.0)
        if severity > 0:
            # A network incident degrades every path that day: loss from
            # failed re-routes, latency from recovery detours.
            profile = LinkProfile(
                base_latency_ms=profile.base_latency_ms * (1 + severity),
                loss_rate=min(0.2, profile.loss_rate + 0.05 * severity),
                jitter_ms=profile.jitter_ms * (1 + severity),
                bandwidth_mbps=profile.bandwidth_mbps,
                burstiness=min(1.0, profile.burstiness + 0.3 * severity),
            )
        if user is not None:
            conditioning = user.conditioning
        else:
            conditioning = float(np.clip(rng.beta(4, 2), 0, 1))

        n_intervals = max(2, int(round(meeting.scheduled_duration_s / SAMPLE_INTERVAL_S)))
        # Most users join on time; some a little late.
        if rng.random() < 0.25:
            late = int(rng.integers(1, max(2, n_intervals // 6)))
            n_intervals = max(2, n_intervals - late)

        conditions = generate_condition_arrays(profile, rng, n_intervals)
        effective = mitigate_arrays(
            self._stacks[platform.key],
            conditions["latency_ms"],
            conditions["loss_pct"],
            conditions["jitter_ms"],
            conditions["bandwidth_mbps"],
            profile.burstiness,
        )
        quality = qoe_arrays(self._config.qoe, effective)
        outcome = self._behavior.simulate_session(
            rng, quality, effective, platform, meeting.size, conditioning
        )
        a = outcome.attended_intervals

        network = {
            metric: {
                "mean": float(values[:a].mean()),
                "median": float(np.median(values[:a])),
                "p95": float(np.percentile(values[:a], 95)),
            }
            for metric, values in conditions.items()
        }
        experienced_mos = float(np.clip(quality.overall_mos[:a].mean(), 1.0, 5.0))
        rating = self._feedback.maybe_rating(rng, experienced_mos, outcome.dropped_early)
        if user is not None:
            user.record_session(experienced_mos)
        return {
            "user_id": (
                user.user_id if user is not None
                else f"{meeting.call_id}-u{index:03d}"
            ),
            "platform": platform.key,
            "country": meeting.countries[index],
            "duration_s": a * SAMPLE_INTERVAL_S,
            "mic_on_frac": outcome.mic_on_frac,
            "cam_on_frac": outcome.cam_on_frac,
            "dropped_early": outcome.dropped_early,
            "network": network,
            "rating": rating,
            "conditioning": conditioning,
        }

    def _build_call(
        self,
        rng: np.random.Generator,
        meeting: Meeting,
        forced_profile: Optional[LinkProfile] = None,
        forced_platform: Optional[Platform] = None,
        focal_only: bool = False,
        users: Optional[List["User"]] = None,
    ) -> CallRecord:
        raw = [
            self._simulate_participant(
                rng, meeting, i,
                forced_profile=forced_profile if (not focal_only or i == 0) else None,
                forced_platform=forced_platform if (not focal_only or i == 0) else None,
                user=users[i] if users is not None else None,
            )
            for i in range(meeting.size)
        ]
        durations = np.array([r["duration_s"] for r in raw])
        median_duration = float(np.median(durations))
        participants: List[ParticipantRecord] = []
        for r in raw:
            presence = 100.0 if median_duration <= 0 else min(
                100.0, 100.0 * r["duration_s"] / median_duration
            )
            participants.append(
                ParticipantRecord(
                    call_id=meeting.call_id,
                    user_id=r["user_id"],
                    platform=r["platform"],
                    country=r["country"],
                    session_duration_s=r["duration_s"],
                    presence_pct=presence,
                    cam_on_pct=100.0 * r["cam_on_frac"],
                    mic_on_pct=100.0 * r["mic_on_frac"],
                    dropped_early=r["dropped_early"],
                    network=r["network"],
                    rating=r["rating"],
                    conditioning=r["conditioning"],
                )
            )
        return CallRecord(
            call_id=meeting.call_id,
            start=meeting.start,
            scheduled_duration_s=meeting.scheduled_duration_s,
            is_enterprise=meeting.is_enterprise,
            participants=participants,
        )

    def _call_rng(self, call_id: str) -> np.random.Generator:
        """The per-call RNG substream.

        Every call is simulated from ``derive(seed, "call", call_id)``,
        so its draws do not depend on how many other calls exist or in
        what order they are computed.
        """
        return derive(self._config.seed, "call", call_id)

    def generate(
        self, cache: Optional["ArtifactCache"] = None
    ) -> CallDataset:
        """Simulate the full dataset (deterministic in the config).

        Meetings are scheduled from one stream, then every call is
        simulated independently on its own substream.

        With ``persistent_users``, meetings are processed sequentially in
        time order (conditioning evolution is causal) and the resulting
        population is kept on :attr:`population` for post-hoc
        inspection.

        With ``cache``, the dataset is loaded from (or persisted to) the
        content-addressed artifact cache instead of resimulating.
        """
        if cache is not None:
            return cache.load_or_build(
                "calls",
                self._config,
                build=self._generate,
                load=CallDataset.from_jsonl,
                dump=lambda dataset, path: dataset.to_jsonl(path),
            )
        return self._generate()

    def _generate(self) -> CallDataset:
        schedule_rng = derive(self._config.seed, "telemetry", "calls")
        meetings = self._scheduler.sample_many(schedule_rng, self._config.n_calls)
        if self._config.persistent_users:
            from repro.telemetry.users import UserPopulation

            self.population = UserPopulation(
                size=self._config.population_size,
                seed=self._config.seed,
                profiles=self._profiles,
            )
            dataset = CallDataset()
            for meeting in sorted(meetings, key=lambda m: m.start):
                rng = self._call_rng(meeting.call_id)
                users = self.population.sample(rng, meeting.size)
                dataset.append(self._build_call(rng, meeting, users=users))
            return dataset
        return CallDataset(
            self._build_call(self._call_rng(m.call_id), m) for m in meetings
        )

    def generate_columns(
        self, cache: Optional["ArtifactCache"] = None
    ):
        """Generate the dataset as columns via the vectorized engine.

        Simulates whole calls at once (see
        :mod:`repro.telemetry.vectorized`) and returns
        :class:`~repro.perf.columnar.ParticipantColumns` directly — the
        10×+ path for analyses that never need record objects.  Output
        is statistically equivalent to :meth:`generate` (same
        population model, same per-call substreams, different
        documented draw order) and byte-identical across runs and cache
        round-trips.  ``persistent_users`` requires the
        sequential record path and raises ``ConfigError`` here.
        """
        from repro.telemetry.vectorized import VectorizedCallEngine

        engine = VectorizedCallEngine(
            self._config,
            scheduler=self._scheduler,
            profiles=self._profiles,
        )
        return engine.generate_columns(cache=cache)

    def generate_sweep(
        self,
        base_profile: LinkProfile,
        sweep_metric: str,
        sweep_values: List[float],
        calls_per_value: int,
        platform_key: Optional[str] = None,
        focal_only: bool = True,
    ) -> CallDataset:
        """Generate a controlled sweep: one metric varies, others pinned.

        This mirrors the paper's conditioning windows directly and is used
        by figure benchmarks that need dense support along one axis.
        ``sweep_metric`` is one of ``latency``, ``loss``, ``jitter``,
        ``bandwidth``.

        With ``focal_only`` (the default), the forced profile applies only
        to participant 0 of each call — the *focal* user — while everyone
        else gets an ordinary draw.  This matters for Presence: the metric
        is relative to the call's median participant duration, so if every
        participant suffered the degraded profile the baseline itself
        would shrink.  Focal sessions carry user ids ending in ``-u000``
        (see :func:`focal_participants`).
        """
        field_names = {
            "latency": "base_latency_ms",
            "loss": "loss_rate",
            "jitter": "jitter_ms",
            "bandwidth": "bandwidth_mbps",
        }
        if sweep_metric not in field_names:
            raise ConfigError(f"unknown sweep metric {sweep_metric!r}")
        if calls_per_value < 1:
            raise ConfigError("calls_per_value must be >= 1")
        if platform_key and platform_key not in PLATFORMS:
            raise ConfigError(
                f"unknown platform {platform_key!r}; expected one of "
                f"{tuple(PLATFORMS)}"
            )
        platform = PLATFORMS[platform_key] if platform_key else None

        dataset = CallDataset()
        for value in sweep_values:
            schedule_rng = derive(
                self._config.seed, "telemetry", "sweep", sweep_metric,
                f"{value:g}",
            )
            meetings = self._scheduler.sample_many(
                schedule_rng, calls_per_value,
                id_prefix=f"sweep-{sweep_metric}-{value:g}",
            )
            profile = replace(
                base_profile, **{field_names[sweep_metric]: value}
            )
            for meeting in meetings:
                dataset.append(
                    self._build_call(
                        self._call_rng(meeting.call_id), meeting,
                        forced_profile=profile, forced_platform=platform,
                        focal_only=focal_only,
                    )
                )
        return dataset


def focal_participants(dataset: CallDataset) -> List[ParticipantRecord]:
    """The participant-0 sessions of a ``generate_sweep`` dataset."""
    return [p for p in dataset.participants() if p.user_id.endswith("-u000")]


_SWEEP_ID_RE = re.compile(
    # sweep-<metric>-<value>-<index>; the value itself may contain '-'
    # (scientific notation like 1e-05) so it is matched greedily up to
    # the trailing call index.
    r"^sweep-[a-z]+-(?P<value>.+)-(?P<index>\d{8})$"
)


def sweep_value_of(call: CallRecord) -> float:
    """Recover the swept metric value encoded in a sweep call id.

    Handles every float format ``{value:g}`` can emit, including
    scientific notation with a negative exponent (``1e-05``), whose
    embedded ``-`` used to truncate the parse.
    """
    match = _SWEEP_ID_RE.match(call.call_id)
    if match is not None:
        try:
            return float(match.group("value"))
        except ValueError:
            pass
    raise ConfigError(
        f"call {call.call_id!r} does not look like a sweep call"
    )

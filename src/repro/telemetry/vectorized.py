"""Block-vectorized call generation — sessions born columnar.

The record path (:class:`~repro.telemetry.generator.CallDatasetGenerator`)
simulates one participant at a time: ~15 small RNG calls and a Python
loop body per session, then a record object, then (for analysis) a
record→column conversion.  At ROADMAP target scale the loop body *is*
the cost.  This module simulates **whole calls at once** and emits
:class:`~repro.perf.columnar.ParticipantColumns` directly — no record
objects, no conversion pass.

Two-stage design
----------------

**Stage 1 — per-call draws.**  Every call keeps its own substream
(``derive(seed, "call", call_id)``), exactly like the record path, so
no call's draws depend on any other call.
All random draws for a call happen here, in a fixed documented order,
with every array shape a pure function of ``(meeting.size, width)`` —
never of drawn values — which makes the stream consumption
deterministic:

(a) platform uniforms · (b) mobile-tier gate · (c) mobile-tier pick ·
(d) tier uniforms · (e) anchor jiggle normals ``(size, 4)`` ·
(f) burstiness normal · (g) decorrelation gates ``(size, 4)`` ·
(h) decorrelation redraws ``(size, 4)`` · (i) conditioning betas ·
(j) late-join gate · (k) late-join amount ·
(l–r) the condition block (:func:`~repro.netsim.vectorized.condition_blocks`
at the *planned* width) · (s) leave-hazard uniforms · (t) planned-early
gate · (u) planned-early fraction · (v) mic uniforms · (w) cam
uniforms · (x) feedback prompt gate · (y) feedback answer gate ·
(z) feedback bias normals · (aa) feedback noise normals.

**Stage 2 — width-bucketed compute.**  All remaining work is
deterministic arithmetic, so calls are grouped by planned width
(meeting durations are drawn from four choices, so there are at most
four widths) and every model — mitigation, QoE, the behaviour state
machine, feedback, the per-session network aggregates — runs as a
handful of ``(rows, width)`` array passes.  A bucket is evaluated as
soon as its pending draws reach a fixed cell budget, and its draws are
then dropped, so peak memory does not depend on ``n_calls``.  Every
step works row by row (elementwise arithmetic, filters, sorts and
reductions along axis 1; the loss model's prefix sums add
integer-valued floats, so they are exact), so neither the grouping
nor the budget changes a byte of the output.

Equivalence contract
--------------------

The vectorized path consumes each call's substream in its own
documented order (above), not the record path's per-participant order,
so outputs are **statistically equivalent** to the record path — same
processes, same parameters, same per-unit substreams — but not
byte-identical to it.  Within the vectorized path, output is
byte-identical across runs and cache round-trips (pinned by tests).
Differences from the record path, all documented:

* condition arrays are drawn at the planned width and masked to the
  attended prefix (the record path draws post-late-join width);
* Gilbert–Elliott loss uses the compound-Poisson block form
  (:func:`~repro.netsim.vectorized.loss_pct_block`): exact stationary
  mean, no cross-interval run straddling;
* categorical draws use inverse-CDF uniforms instead of ``rng.choice``.

``persistent_users`` is inherently sequential (conditioning evolves
call to call) and is rejected here — the record path remains the
reference implementation and the only engine for that mode, for
sweeps, and for any consumer that needs record objects.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.netsim.link import NETWORK_TIERS
from repro.netsim.trace import SAMPLE_INTERVAL_S
from repro.netsim.vectorized import (
    ConditionDraws,
    LinkProfileArrays,
    MitigationParamArrays,
    condition_blocks_from_draws,
    condition_draws,
    mitigate_arrays,
    qoe_arrays,
)
from repro.perf.columnar import ParticipantColumns
from repro.rng import derive
from repro.telemetry.feedback import FeedbackModel
from repro.telemetry.generator import GeneratorConfig
from repro.telemetry.meetings import Meeting, MeetingScheduler
from repro.telemetry.network_profiles import DECORRELATE_RANGES, ProfileSampler
from repro.telemetry.platforms import PLATFORMS
from repro.telemetry.schema import AGGREGATES, NETWORK_METRICS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.perf.cache import ArtifactCache

#: Per-metric log-normal jiggle scales (latency, loss, jitter, bandwidth)
#: mirroring :func:`repro.netsim.link.sample_link_profile`.
_JIG_SCALES = np.array([0.35, 0.6, 0.35, 0.25])

#: Mitigation-stack attributes carried per platform into stage 2.
_STACK_FIELDS = (
    "fec_budget_pct", "fec_efficiency", "burst_penalty", "jitter_buffer_ms",
    "audio_concealment", "video_concealment", "video_target_mbps",
    "audio_target_mbps",
)

#: Pending ``rows × width`` cells at which a width bucket is evaluated
#: and its stage-1 draws dropped (about 3 MB of draws per bucket).
#: Stage 2 works row by row, so this bounds memory and changes no
#: output byte.  Much smaller buckets cost time: evaluating each call
#: on its own made a 400-call block about 40 % slower.
_BUCKET_CELLS = 1 << 15


@dataclass
class _CallDraws:
    """Stage-1 output for one call: all randomness, no model evaluation."""

    meeting: Meeting
    row_start: int
    width: int
    n_attend_max: np.ndarray
    platform_idx: np.ndarray
    burstiness: np.ndarray
    conditioning: np.ndarray
    conditions: ConditionDraws
    hazard_u: np.ndarray
    early_gate_u: np.ndarray
    early_frac: np.ndarray
    mic_u: np.ndarray
    cam_u: np.ndarray
    fb_prompt_u: np.ndarray
    fb_answer_u: np.ndarray
    fb_bias: np.ndarray
    fb_noise: np.ndarray


class VectorizedCallEngine:
    """Batch engine producing :class:`ParticipantColumns` from a config.

    Mirrors :class:`CallDatasetGenerator`'s population model — same
    meetings, same platform/tier mixes, same behaviour and feedback
    parameters, same per-call substreams — with the block draw order
    documented in the module docstring.
    """

    def __init__(
        self,
        config: GeneratorConfig = GeneratorConfig(),
        scheduler: Optional[MeetingScheduler] = None,
        profiles: Optional[ProfileSampler] = None,
    ) -> None:
        if config.persistent_users:
            raise ConfigError(
                "persistent_users evolves conditioning call to call and "
                "cannot be block-simulated; use the record path"
            )
        self._config = config
        self._scheduler = scheduler or MeetingScheduler()
        sampler = profiles or ProfileSampler(decorrelate=config.decorrelate)
        self._decorrelate = sampler.decorrelate
        self._mobile_affinity = sampler.mobile_tier_affinity
        self._feedback = FeedbackModel(sample_rate=config.mos_sample_rate)

        keys = list(PLATFORMS)
        self._platform_keys = keys
        shares = np.array([PLATFORMS[k].population_share for k in keys])
        self._platform_cdf = np.cumsum(shares / shares.sum())
        self._platform_mobile = np.array(
            [PLATFORMS[k].is_mobile for k in keys]
        )
        self._base_mic = np.array([PLATFORMS[k].base_mic_rate for k in keys])
        self._base_cam = np.array([PLATFORMS[k].base_cam_rate for k in keys])
        self._drop_sens = np.array(
            [PLATFORMS[k].drop_sensitivity for k in keys]
        )
        self._eng_sens = np.array(
            [PLATFORMS[k].engagement_sensitivity for k in keys]
        )
        from repro.netsim.mitigation import MitigationStack

        if config.mitigation_enabled:
            stacks = [PLATFORMS[k].mitigation_stack() for k in keys]
        else:
            stacks = [MitigationStack.disabled() for _ in keys]
        self._stack_params = {
            name: np.array([getattr(s, name) for s in stacks], dtype=float)
            for name in _STACK_FIELDS
        }

        tiers = list(NETWORK_TIERS)
        weights = np.array([NETWORK_TIERS[t][1] for t in tiers])
        self._tier_cdf = np.cumsum(weights / weights.sum())
        anchors = [NETWORK_TIERS[t][0] for t in tiers]
        # Anchor metrics as one (n_tiers, 4) matrix in DECORRELATE_RANGES
        # order, so the per-call jiggle is a single (size, 4) exp pass.
        self._anchor_mat = np.column_stack(
            [
                [a.base_latency_ms for a in anchors],
                [a.loss_rate for a in anchors],
                [a.jitter_ms for a in anchors],
                [a.bandwidth_mbps for a in anchors],
            ]
        )
        self._tier_burstiness = np.array([a.burstiness for a in anchors])
        self._mobile_tiers = np.array(
            [tiers.index("mobile_lte"), tiers.index("weak_mobile")]
        )
        self._deco_log_low = np.array(
            [np.log(low) for low, _ in DECORRELATE_RANGES]
        )
        self._deco_log_span = np.array(
            [np.log(high) - np.log(low) for low, high in DECORRELATE_RANGES]
        )

    @property
    def config(self) -> GeneratorConfig:
        return self._config

    # -- entry point -----------------------------------------------------

    def generate_columns(
        self, cache: Optional["ArtifactCache"] = None
    ) -> ParticipantColumns:
        """Build (or load) the full dataset as one columns block.

        With ``cache``, the block persists under kind
        ``participant-columns-vec``, apart from the record path's
        ``calls`` kind, because the two paths are statistically, not
        byte, equivalent.
        """
        if cache is not None:
            return cache.load_or_build(
                "participant-columns-vec",
                self._config,
                build=self._build,
                load=ParticipantColumns.from_jsonl,
                dump=lambda cols, path: cols.to_jsonl(path),
            )
        return self._build()

    def generate_with_ground_truth(
        self,
    ) -> Tuple[ParticipantColumns, np.ndarray]:
        """The columns block plus each session's *experienced* QoE.

        The ground truth is the attended-interval mean of the QoE
        model's per-interval overall MOS, minus the drop penalty when
        the session was cut short, clipped to [1, 5] — i.e. the
        noiseless centre of the rating distribution.  Being driven out
        early is part of the experience, so it belongs in the truth;
        per-user leniency, response noise and rounding are measurement
        distortion, so they do not.  The simulator already computes
        every term on the way to ``rating``, so capturing truth adds no
        RNG draws and the block stays byte-identical to
        :meth:`generate_columns`.  Truth is an evaluation aid, not a
        cached artifact.
        """
        return self._simulate_block(self._meetings(), with_truth=True)

    def _meetings(self) -> List[Meeting]:
        schedule_rng = derive(self._config.seed, "telemetry", "calls")
        return self._scheduler.sample_many(schedule_rng, self._config.n_calls)

    def _build(self) -> ParticipantColumns:
        return self._simulate_block(self._meetings())

    # -- stage 1: per-call draws ----------------------------------------

    def _draw_call(self, meeting: Meeting, row_start: int) -> _CallDraws:
        rng = derive(self._config.seed, "call", meeting.call_id)
        size = meeting.size
        width = max(
            2, int(round(meeting.scheduled_duration_s / SAMPLE_INTERVAL_S))
        )
        # (a)-(d): platform, then network tier (inverse-CDF picks).
        platform_u = rng.random(size)
        mobile_gate_u = rng.random(size)
        mobile_pick_u = rng.random(size)
        tier_u = rng.random(size)
        # (e)-(f): log-normal jiggle around the tier anchors.
        jig_z = rng.standard_normal((size, 4))
        burst_z = rng.standard_normal(size)
        # (g)-(h): per-metric decorrelation gates and redraws.
        deco_gate_u = rng.random((size, 4))
        redraw_u = rng.random((size, 4))
        # (i)-(k): conditioning and late join.
        conditioning = rng.beta(4.0, 2.0, size)  # support is already [0, 1]
        late_gate_u = rng.random(size)
        late_u = rng.random(size)

        n_platforms = len(self._platform_keys)
        platform_idx = np.minimum(
            self._platform_cdf.searchsorted(platform_u, side="right"),
            n_platforms - 1,
        )
        mobile = self._platform_mobile[platform_idx] & (
            mobile_gate_u < self._mobile_affinity
        )
        tier_idx = np.minimum(
            self._tier_cdf.searchsorted(tier_u, side="right"),
            len(self._tier_cdf) - 1,
        )
        tier_idx = np.where(
            mobile,
            self._mobile_tiers[(mobile_pick_u >= 0.5).astype(np.int64)],
            tier_idx,
        )
        # All four metrics jiggle, cap and decorrelate in (size, 4) passes.
        vals = self._anchor_mat[tier_idx] * np.exp(_JIG_SCALES * jig_z)
        vals[:, 1] = np.minimum(0.20, vals[:, 1])
        vals[:, 3] = np.maximum(0.2, vals[:, 3])
        burstiness = np.minimum(
            1.0,
            np.maximum(0.0, self._tier_burstiness[tier_idx] + 0.1 * burst_z),
        )
        redraws = np.exp(self._deco_log_low + redraw_u * self._deco_log_span)
        vals = np.where(deco_gate_u < self._decorrelate, redraws, vals)
        latency, loss, jitter, bandwidth = vals.T
        severity = self._config.outage_days.get(meeting.start.date(), 0.0)
        if severity > 0:
            latency = latency * (1 + severity)
            loss = np.minimum(0.2, loss + 0.05 * severity)
            jitter = jitter * (1 + severity)
            burstiness = np.minimum(1.0, burstiness + 0.3 * severity)
        profiles = LinkProfileArrays(
            base_latency_ms=latency,
            loss_rate=loss,
            jitter_ms=jitter,
            bandwidth_mbps=bandwidth,
            burstiness=burstiness,
        )
        # Late join: same distribution as the record path's
        # ``integers(1, max(2, width // 6))`` on a quarter of sessions.
        high = max(2, width // 6)
        late = 1 + np.floor(late_u * (high - 1)).astype(np.int64)
        n_attend_max = np.where(
            late_gate_u < 0.25, np.maximum(2, width - late), width
        )
        # (l)-(r): the condition block's draws at the planned width; the
        # arithmetic runs batched per width bucket in stage 2.
        conditions = condition_draws(rng, profiles, width)
        # (s)-(u): leave process.
        hazard_u = rng.random((size, width))
        early_gate_u = rng.random(size)
        early_frac = rng.uniform(0.3, 0.95, size)
        # (v)-(w): channel states.
        mic_u = rng.random((size, width))
        cam_u = rng.random((size, width))
        # (x)-(aa): feedback.
        fb_prompt_u = rng.random(size)
        fb_answer_u = rng.random(size)
        fb_bias = rng.normal(0.0, self._feedback.bias_sd, size)
        fb_noise = rng.normal(0.0, self._feedback.noise_sd, size)
        return _CallDraws(
            meeting=meeting,
            row_start=row_start,
            width=width,
            n_attend_max=n_attend_max,
            platform_idx=platform_idx,
            burstiness=burstiness,
            conditioning=conditioning,
            conditions=conditions,
            hazard_u=hazard_u,
            early_gate_u=early_gate_u,
            early_frac=early_frac,
            mic_u=mic_u,
            cam_u=cam_u,
            fb_prompt_u=fb_prompt_u,
            fb_answer_u=fb_answer_u,
            fb_bias=fb_bias,
            fb_noise=fb_noise,
        )

    # -- stage 2: width buckets, evaluated at a fixed cell budget --------

    def _simulate_block(
        self, meetings: List[Meeting], with_truth: bool = False
    ) -> "ParticipantColumns | Tuple[ParticipantColumns, np.ndarray]":
        total = sum(meeting.size for meeting in meetings)
        truth = np.empty(total) if with_truth else None
        duration_s = np.empty(total)
        mic_frac = np.empty(total)
        cam_frac = np.empty(total)
        dropped = np.zeros(total, dtype=bool)
        rating = np.empty(total)
        conditioning = np.empty(total)
        network = {
            m: {s: np.empty(total) for s in AGGREGATES}
            for m in NETWORK_METRICS
        }

        def evaluate(width: int, group: List[_CallDraws]) -> None:
            rows = np.concatenate(
                [
                    np.arange(
                        d.row_start, d.row_start + d.meeting.size,
                        dtype=np.int64,
                    )
                    for d in group
                ]
            )
            out = self._evaluate_bucket(width, group)
            duration_s[rows] = out["duration_s"]
            mic_frac[rows] = out["mic_frac"]
            cam_frac[rows] = out["cam_frac"]
            dropped[rows] = out["dropped"]
            rating[rows] = out["rating"]
            conditioning[rows] = out["conditioning"]
            if truth is not None:
                truth[rows] = np.clip(
                    out["mos"]
                    - self._feedback.drop_penalty * out["dropped"],
                    1.0, 5.0,
                )
            for m in NETWORK_METRICS:
                for s in AGGREGATES:
                    network[m][s][rows] = out["network"][m][s]

        # Draw and evaluate in one pass, so the draws alive at any time
        # never exceed four buckets' worth, whatever n_calls is.
        pending: Dict[int, List[_CallDraws]] = {}
        pending_rows: Dict[int, int] = {}
        calls: List[Tuple[Meeting, int, np.ndarray]] = []
        row_start = 0
        for meeting in meetings:
            d = self._draw_call(meeting, row_start)
            calls.append((meeting, row_start, d.platform_idx))
            row_start += meeting.size
            pending.setdefault(d.width, []).append(d)
            held = pending_rows.get(d.width, 0) + meeting.size
            if held * d.width >= _BUCKET_CELLS:
                evaluate(d.width, pending.pop(d.width))
                held = 0
            pending_rows[d.width] = held
        for width, group in pending.items():
            evaluate(width, group)

        # Presence is relative to the call's median attended duration,
        # so it only exists once every bucket has reported back.
        presence = np.empty(total)
        call_id: List[str] = []
        user_id: List[str] = []
        platform: List[str] = []
        country: List[str] = []
        call_start: List[Optional[dt.datetime]] = []
        for meeting, lo, platform_idx in calls:
            hi = lo + meeting.size
            median = float(np.median(duration_s[lo:hi]))
            if median <= 0:
                presence[lo:hi] = 100.0
            else:
                presence[lo:hi] = np.minimum(
                    100.0, 100.0 * duration_s[lo:hi] / median
                )
            call_id.extend([meeting.call_id] * meeting.size)
            user_id.extend(
                f"{meeting.call_id}-u{i:03d}" for i in range(meeting.size)
            )
            platform.extend(
                self._platform_keys[i] for i in platform_idx.tolist()
            )
            country.extend(meeting.countries)
            call_start.extend([meeting.start] * meeting.size)

        cols = ParticipantColumns(
            call_id=call_id,
            user_id=user_id,
            platform=platform,
            country=country,
            call_start=call_start,
            session_duration_s=duration_s,
            presence_pct=presence,
            cam_on_pct=100.0 * cam_frac,
            mic_on_pct=100.0 * mic_frac,
            conditioning=conditioning,
            dropped_early=dropped,
            rating=rating,
            network=network,
        )
        if truth is not None:
            return cols, truth
        return cols

    def _evaluate_bucket(
        self, width: int, group: List[_CallDraws]
    ) -> Dict[str, object]:
        """All model arithmetic for one width bucket — no RNG in here."""

        def rows1(attr: str) -> np.ndarray:
            return np.concatenate([getattr(d, attr) for d in group])

        def rows2(attr: str) -> np.ndarray:
            return np.vstack([getattr(d, attr) for d in group])

        platform_idx = rows1("platform_idx")
        burstiness = rows1("burstiness")
        conditioning = rows1("conditioning")
        n_attend_max = rows1("n_attend_max")
        conditions = condition_blocks_from_draws(
            [d.conditions for d in group]
        )
        sizes = np.concatenate(
            [np.full(d.meeting.size, d.meeting.size, dtype=float)
             for d in group]
        )

        params = MitigationParamArrays(
            **{
                name: self._stack_params[name][platform_idx][:, None]
                for name in _STACK_FIELDS
            }
        )
        effective = mitigate_arrays(
            params,
            conditions["latency_ms"],
            conditions["loss_pct"],
            conditions["jitter_ms"],
            conditions["bandwidth_mbps"],
            burstiness[:, None],
        )
        quality = qoe_arrays(self._config.qoe, effective)

        p = self._config.behavior
        cols = np.arange(width)
        reaction = (
            1 - p.conditioning_damping * (1 - conditioning)
        ) * self._eng_sens[platform_idx]
        audio_gap = effective.residual_audio_loss_pct
        qoe_deficit = np.clip(
            (3.9 - quality.overall_mos) / 2.9, 0.0, 1.0
        )
        lo_inter = 1 - quality.interactivity
        frustration = lo_inter * lo_inter * lo_inter
        hazard = p.base_leave_hazard + (
            self._drop_sens[platform_idx] * reaction
        )[:, None] * (
            p.audio_gap_leave_gain * audio_gap * np.sqrt(audio_gap)
            + p.inter_leave_gain * frustration
            + p.qoe_leave_gain * qoe_deficit * qoe_deficit
        )
        hazard = np.clip(hazard, 0.0, 0.5)
        triggered = (rows2("hazard_u") < hazard) & (
            cols[None, :] < n_attend_max[:, None]
        )
        leave_at = np.where(
            triggered.any(axis=1), triggered.argmax(axis=1) + 1, n_attend_max
        )
        planned = np.where(
            rows1("early_gate_u") < p.early_leave_share,
            np.maximum(
                1,
                np.ceil(n_attend_max * rows1("early_frac")).astype(np.int64),
            ),
            n_attend_max,
        )
        attended = np.maximum(1, np.minimum(leave_at, planned))
        dropped = leave_at < planned
        attended_f = attended.astype(float)
        attended_mask = cols[None, :] < attended[:, None]

        inter = quality.interactivity
        video_q = (quality.video_mos - 1.0) / 4.0
        mic_response = p.mic_floor + (1 - p.mic_floor) * inter
        mic_response = 1 - reaction[:, None] * (1 - mic_response)
        size_penalty = p.meeting_size_mute_gain * np.maximum(
            0.0, np.log2(sizes / 3.0)
        )
        p_mic = self._base_mic[platform_idx][:, None] * np.clip(
            mic_response - size_penalty[:, None], 0.0, 1.0
        )
        mic_frac = (
            ((rows2("mic_u") < p_mic) & attended_mask).sum(axis=1)
            / attended_f
        )
        cam_response = (
            p.cam_floor
            + p.cam_video_weight * video_q
            + p.cam_inter_weight * inter
        ) / (p.cam_floor + p.cam_video_weight + p.cam_inter_weight)
        cam_response = 1 - reaction[:, None] * np.clip(
            1 - cam_response, 0.0, 1.0
        )
        p_cam = self._base_cam[platform_idx][:, None] * np.clip(
            cam_response, 0.0, 1.0
        )
        cam_frac = (
            ((rows2("cam_u") < p_cam) & attended_mask).sum(axis=1)
            / attended_f
        )

        mos = np.clip(
            np.where(attended_mask, quality.overall_mos, 0.0).sum(axis=1)
            / attended_f,
            1.0, 5.0,
        )
        fb = self._feedback
        raw = (
            mos + rows1("fb_bias") + rows1("fb_noise")
            - fb.drop_penalty * dropped
        )
        rating = np.where(
            (rows1("fb_prompt_u") < fb.sample_rate)
            & (rows1("fb_answer_u") < fb.response_rate),
            np.clip(np.round(raw), 1.0, 5.0),
            np.nan,
        )

        network = {
            m: dict(
                zip(
                    AGGREGATES,
                    _masked_stats(conditions[m], attended, attended_mask),
                )
            )
            for m in NETWORK_METRICS
        }
        return {
            "duration_s": attended_f * SAMPLE_INTERVAL_S,
            "mic_frac": mic_frac,
            "cam_frac": cam_frac,
            "dropped": dropped,
            "rating": rating,
            "conditioning": conditioning,
            "network": network,
            "mos": mos,
        }


def _masked_stats(
    values: np.ndarray, attended: np.ndarray, mask: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row (mean, median, p95) over each row's attended prefix.

    Matches ``np.median`` / ``np.percentile(..., 95)`` (linear
    interpolation) on the prefix: invalid entries sort to the top as
    ``+inf`` and order statistics index only the first ``attended``
    slots.
    """
    attended_f = attended.astype(float)
    mean = np.where(mask, values, 0.0).sum(axis=1) / attended_f
    ordered = np.where(mask, values, np.inf)
    ordered.sort(axis=1)

    def pick(idx: np.ndarray) -> np.ndarray:
        return np.take_along_axis(ordered, idx[:, None], axis=1)[:, 0]

    median = 0.5 * (pick((attended - 1) // 2) + pick(attended // 2))
    pos = 0.95 * (attended_f - 1.0)
    low = np.floor(pos).astype(np.int64)
    frac = pos - low
    v_low = pick(low)
    v_high = pick(np.minimum(low + 1, attended - 1))
    p95 = v_low + (v_high - v_low) * frac
    return mean, median, p95

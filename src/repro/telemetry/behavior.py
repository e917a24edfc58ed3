"""The user-behaviour engine: how experienced quality becomes user action.

This is the causal heart of the §3 reproduction.  Each participant is an
agent that, interval by interval, experiences the quality of its network
path (after the client's mitigation stack) and takes the actions the paper
observes, in the paper's observed order of escalation:

1. **Mute** — the means of first resort.  Delay makes rapid turn-taking
   painful, so the probability of keeping the microphone open tracks the
   interactivity score, which falls steeply up to ~150 ms and then
   flattens (the Fig. 1 Mic On shape).
2. **Camera off** — the second resort.  Driven by video quality (jitter
   artefacts, bitrate starvation) and, more weakly, by delay.
3. **Leave** — the last resort.  A per-interval hazard that stays small
   until audio becomes objectionable; residual audible gaps (which explode
   once raw loss exceeds the FEC budget, ~2–3 %) dominate this hazard.

Confounders the paper calls out in §6 are modelled explicitly: meeting
size raises the baseline mute rate (etiquette, not network), the platform
scales sensitivity and drop hazard (Fig. 3), and long-term *conditioning*
(a user's accumulated network expectations) damps reactions with a
deliberately weaker coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError, SimulationError
from repro.netsim.vectorized import EffectiveArrays, QualityArrays
from repro.telemetry.platforms import Platform


@dataclass(frozen=True)
class BehaviorParams:
    """Coefficients of the behaviour engine.

    The defaults are calibrated (see ``benchmarks/``) so the emergent
    population curves match the shapes reported in the paper's Fig. 1–4.

    Attributes:
        mic_floor: fraction of the clean-conditions mic rate retained at
            zero interactivity (the Fig. 1 Mic On plateau level).
        cam_video_weight / cam_inter_weight: how camera propensity splits
            between video quality and interactivity; the remainder is a
            floor.
        base_leave_hazard: per-interval hazard of leaving for non-network
            reasons (agenda finished, conflicts, ...).
        audio_gap_leave_gain: leave-hazard gain per (residual audio loss
            %)^1.5 — the loss-driven drop-off mechanism.
        inter_leave_gain: leave-hazard gain per (1 - interactivity)^3 —
            delay frustration slowly pushing people out of the call.
        qoe_leave_gain: leave-hazard gain from generally poor overall QoE.
        meeting_size_mute_gain: added mute propensity per log2(size/3).
        conditioning_damping: fraction of network reaction removed for a
            fully conditioned (expectation = 0) user; deliberately small.
        early_leave_share: share of users with a planned early departure.
    """

    mic_floor: float = 0.66
    cam_floor: float = 0.28
    cam_video_weight: float = 0.47
    cam_inter_weight: float = 0.25
    base_leave_hazard: float = 0.0006
    audio_gap_leave_gain: float = 0.0016
    inter_leave_gain: float = 0.004
    qoe_leave_gain: float = 0.0030
    meeting_size_mute_gain: float = 0.06
    conditioning_damping: float = 0.25
    early_leave_share: float = 0.12

    def __post_init__(self) -> None:
        for name in ("mic_floor", "cam_floor", "cam_video_weight",
                     "cam_inter_weight", "conditioning_damping",
                     "early_leave_share"):
            value = getattr(self, name)
            if not 0 <= value <= 1:
                raise ConfigError(f"{name} must be in [0, 1], got {value}")
        if self.cam_floor + self.cam_video_weight + self.cam_inter_weight > 1.001:
            raise ConfigError("cam floor + weights must not exceed 1")
        for name in ("base_leave_hazard", "audio_gap_leave_gain",
                     "inter_leave_gain", "qoe_leave_gain",
                     "meeting_size_mute_gain"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")


@dataclass(frozen=True)
class SessionOutcome:
    """What one participant ended up doing.

    Attributes:
        attended_intervals: number of five-second intervals attended.
        mic_on_frac / cam_on_frac: fraction of attended intervals with the
            channel on, in [0, 1].
        dropped_early: left before the planned end.
    """

    attended_intervals: int
    mic_on_frac: float
    cam_on_frac: float
    dropped_early: bool

    def __post_init__(self) -> None:
        if self.attended_intervals < 1:
            raise SimulationError("a session must attend at least one interval")
        for name in ("mic_on_frac", "cam_on_frac"):
            value = getattr(self, name)
            if not 0 <= value <= 1:
                raise SimulationError(f"{name} must be in [0, 1], got {value}")


class BehaviorModel:
    """Simulates one participant's in-call behaviour from quality arrays."""

    def __init__(self, params: BehaviorParams = BehaviorParams()) -> None:
        self._params = params

    def simulate_session(
        self,
        rng: np.random.Generator,
        quality: QualityArrays,
        effective: EffectiveArrays,
        platform: Platform,
        meeting_size: int,
        conditioning: float,
    ) -> SessionOutcome:
        """Run the agent across the session's intervals.

        ``quality``/``effective`` must span the participant's *planned*
        stay; the agent may leave earlier.

        Args:
            conditioning: the user's long-term expectation of network
                quality in [0, 1]; 1 = accustomed to pristine networks
                (reacts fully), 0 = accustomed to bad ones (reacts less).
        """
        p = self._params
        n = len(quality.overall_mos)
        if n < 1:
            raise SimulationError("empty quality arrays")
        if meeting_size < 1:
            raise ConfigError("meeting_size must be >= 1")
        if not 0 <= conditioning <= 1:
            raise ConfigError("conditioning must be in [0, 1]")

        # Reaction damping: conditioned users react less (weak, per §6).
        reaction = (1 - p.conditioning_damping * (1 - conditioning))
        reaction *= platform.engagement_sensitivity

        # --- leave decision -------------------------------------------
        audio_gap = effective.residual_audio_loss_pct
        qoe_deficit = np.clip((3.9 - quality.overall_mos) / 2.9, 0.0, 1.0)
        delay_frustration = (1 - quality.interactivity) ** 3
        hazard = (
            p.base_leave_hazard
            + platform.drop_sensitivity * reaction * (
                p.audio_gap_leave_gain * audio_gap**1.5
                + p.inter_leave_gain * delay_frustration
                + p.qoe_leave_gain * qoe_deficit**2
            )
        )
        hazard = np.clip(hazard, 0.0, 0.5)
        draws = rng.random(n)
        triggered = draws < hazard
        if triggered.any():
            leave_at = int(np.argmax(triggered)) + 1
        else:
            leave_at = n
        # Planned (non-network) early departures.
        if rng.random() < p.early_leave_share:
            planned = int(np.ceil(n * rng.uniform(0.3, 0.95)))
            planned = max(1, planned)
        else:
            planned = n
        attended = max(1, min(leave_at, planned))
        dropped_early = leave_at < planned

        inter = quality.interactivity[:attended]
        video_q = (quality.video_mos[:attended] - 1) / 4

        # --- microphone -----------------------------------------------
        # Interactivity response with a floor: steep early, plateau late.
        mic_response = p.mic_floor + (1 - p.mic_floor) * inter
        # Degradation below perfect interactivity is what reaction scales.
        mic_response = 1 - reaction * (1 - mic_response)
        size_penalty = p.meeting_size_mute_gain * max(
            0.0, np.log2(max(meeting_size, 1) / 3)
        )
        p_mic = platform.base_mic_rate * np.clip(mic_response - size_penalty, 0.0, 1.0)
        mic_states = rng.random(attended) < p_mic

        # --- camera ----------------------------------------------------
        cam_response = (
            p.cam_floor
            + p.cam_video_weight * video_q
            + p.cam_inter_weight * inter
        ) / (p.cam_floor + p.cam_video_weight + p.cam_inter_weight)
        cam_response = 1 - reaction * np.clip(1 - cam_response, 0.0, 1.0)
        p_cam = platform.base_cam_rate * np.clip(cam_response, 0.0, 1.0)
        cam_states = rng.random(attended) < p_cam

        return SessionOutcome(
            attended_intervals=attended,
            mic_on_frac=float(mic_states.mean()),
            cam_on_frac=float(cam_states.mean()),
            dropped_early=bool(dropped_early),
        )

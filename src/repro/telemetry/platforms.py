"""Platform catalog and per-platform behaviour modifiers.

Fig. 3 of the paper shows that the *same* network conditions produce
different engagement responses on different platforms: mobile users drop
off sooner, and sensitivity varies with operating system.  The paper
attributes this to differing user expectations (mobile joiners are less
committed) and to differing application-level optimisation headroom
(CPU-constrained devices run lighter mitigation).

Both mechanisms are modelled here: each :class:`Platform` carries
engagement baselines, a drop-hazard multiplier, and a mitigation-strength
factor that scales the FEC/concealment stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.errors import ConfigError
from repro.netsim.mitigation import MitigationStack


@dataclass(frozen=True)
class Platform:
    """Behavioural and technical profile of a client platform.

    Attributes:
        key: stable identifier used in records.
        is_mobile: phone/tablet vs desktop.
        base_cam_rate: propensity to keep the camera on under perfect
            conditions, in [0, 1].
        base_mic_rate: same for the microphone.
        drop_sensitivity: multiplier on the leave hazard under degraded
            conditions (>1 → leaves sooner, the mobile pattern).
        engagement_sensitivity: multiplier on how strongly QoE degradation
            translates into mute/cam-off decisions.
        mitigation_strength: scales FEC efficiency and concealment; <1
            models CPU-constrained clients running lighter safeguards.
        population_share: sampling weight in the call population.
    """

    key: str
    is_mobile: bool
    base_cam_rate: float
    base_mic_rate: float
    drop_sensitivity: float
    engagement_sensitivity: float
    mitigation_strength: float
    population_share: float

    def __post_init__(self) -> None:
        for name in ("base_cam_rate", "base_mic_rate"):
            value = getattr(self, name)
            if not 0 <= value <= 1:
                raise ConfigError(f"{name} must be in [0, 1], got {value}")
        for name in ("drop_sensitivity", "engagement_sensitivity",
                     "mitigation_strength", "population_share"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.mitigation_strength > 1:
            raise ConfigError("mitigation_strength must be <= 1")

    def mitigation_stack(self, base: MitigationStack = MitigationStack()) -> MitigationStack:
        """The client's safeguard stack, scaled by available headroom."""
        s = self.mitigation_strength
        return MitigationStack(
            fec_budget_pct=base.fec_budget_pct,
            fec_efficiency=base.fec_efficiency * s,
            burst_penalty=base.burst_penalty,
            jitter_buffer_ms=base.jitter_buffer_ms,
            audio_concealment=base.audio_concealment * s,
            video_concealment=base.video_concealment * s,
            video_target_mbps=base.video_target_mbps,
            audio_target_mbps=base.audio_target_mbps,
        )


PLATFORMS: Dict[str, Platform] = {
    "windows_pc": Platform(
        key="windows_pc", is_mobile=False,
        base_cam_rate=0.62, base_mic_rate=0.55,
        drop_sensitivity=1.0, engagement_sensitivity=1.0,
        mitigation_strength=1.0, population_share=0.55,
    ),
    "mac_pc": Platform(
        key="mac_pc", is_mobile=False,
        base_cam_rate=0.66, base_mic_rate=0.56,
        drop_sensitivity=0.95, engagement_sensitivity=0.95,
        mitigation_strength=1.0, population_share=0.20,
    ),
    "ios_mobile": Platform(
        key="ios_mobile", is_mobile=True,
        base_cam_rate=0.45, base_mic_rate=0.48,
        drop_sensitivity=1.7, engagement_sensitivity=1.35,
        mitigation_strength=0.8, population_share=0.15,
    ),
    "android_mobile": Platform(
        key="android_mobile", is_mobile=True,
        base_cam_rate=0.42, base_mic_rate=0.46,
        drop_sensitivity=2.0, engagement_sensitivity=1.5,
        mitigation_strength=0.7, population_share=0.10,
    ),
}

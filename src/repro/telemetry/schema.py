"""Record schema for the synthetic call dataset.

These dataclasses define the contract between the telemetry generator and
the §3 analysis pipeline.  Field names follow the paper's terminology:
*Presence*, *Cam On* and *Mic On* are percentages (§3.1), network metrics
come as per-session mean/median/P95 aggregates of five-second samples,
and explicit feedback (when sampled) is a 1–5 star rating.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import SchemaError

NETWORK_METRICS = ("latency_ms", "loss_pct", "jitter_ms", "bandwidth_mbps")
AGGREGATES = ("mean", "median", "p95")
ENGAGEMENT_METRICS = ("presence_pct", "cam_on_pct", "mic_on_pct")


@dataclass(frozen=True)
class ParticipantRecord:
    """One user's session within one call.

    Attributes:
        call_id / user_id: opaque identifiers.
        platform: platform key from :mod:`repro.telemetry.platforms`.
        country: ISO-ish country code of the participant.
        session_duration_s: how long the user stayed.
        presence_pct: session duration as % of the call's median
            participant duration, capped at 100 (§3.1).
        cam_on_pct / mic_on_pct: % of the session with camera / mic on.
        dropped_early: True if the user left before the meeting ended.
        network: per-metric aggregates, ``network[metric][stat]`` with
            metric in ``NETWORK_METRICS`` and stat in ``AGGREGATES``.
        rating: 1–5 explicit feedback, or None (the overwhelmingly common
            case — the paper samples 0.1–1 % of sessions).
        conditioning: the user's long-term network-quality expectation in
            [0, 1] (1 = used to pristine networks); a §6 confounder.
    """

    call_id: str
    user_id: str
    platform: str
    country: str
    session_duration_s: float
    presence_pct: float
    cam_on_pct: float
    mic_on_pct: float
    dropped_early: bool
    network: Dict[str, Dict[str, float]]
    rating: Optional[int] = None
    conditioning: float = 0.5

    def __post_init__(self) -> None:
        if self.session_duration_s <= 0:
            raise SchemaError("session_duration_s must be positive")
        for name in ("presence_pct", "cam_on_pct", "mic_on_pct"):
            value = getattr(self, name)
            if not 0 <= value <= 100:
                raise SchemaError(f"{name} must be in [0, 100], got {value}")
        for metric in NETWORK_METRICS:
            if metric not in self.network:
                raise SchemaError(f"network aggregates missing {metric!r}")
            for stat in AGGREGATES:
                if stat not in self.network[metric]:
                    raise SchemaError(f"network[{metric!r}] missing {stat!r}")
        if self.rating is not None and self.rating not in (1, 2, 3, 4, 5):
            raise SchemaError(f"rating must be 1-5 or None, got {self.rating}")
        if not 0 <= self.conditioning <= 1:
            raise SchemaError("conditioning must be in [0, 1]")

    def metric(self, name: str, stat: str = "mean") -> float:
        """Shorthand accessor, e.g. ``p.metric('latency_ms')``."""
        try:
            return self.network[name][stat]
        except KeyError:
            raise SchemaError(f"no aggregate {name!r}/{stat!r}") from None

    def engagement(self, name: str) -> float:
        if name not in ENGAGEMENT_METRICS:
            raise SchemaError(f"unknown engagement metric {name!r}")
        return float(getattr(self, name))


@dataclass(frozen=True)
class CallRecord:
    """One meeting, with all participant sessions.

    Attributes:
        call_id: opaque identifier.
        start: wall-clock meeting start (timezone-naive, US Eastern —
            the paper's cohort is 9 AM–8 PM EST).
        scheduled_duration_s: the booked length of the meeting.
        is_enterprise: tenant type; the cohort keeps enterprise only.
        participants: all participant sessions.
    """

    call_id: str
    start: dt.datetime
    scheduled_duration_s: float
    is_enterprise: bool
    participants: List[ParticipantRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.scheduled_duration_s <= 0:
            raise SchemaError("scheduled_duration_s must be positive")
        for p in self.participants:
            if p.call_id != self.call_id:
                raise SchemaError(
                    f"participant {p.user_id} has call_id {p.call_id!r}, "
                    f"expected {self.call_id!r}"
                )

    @property
    def size(self) -> int:
        return len(self.participants)

    @property
    def countries(self) -> List[str]:
        return sorted({p.country for p in self.participants})

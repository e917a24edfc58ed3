"""Online change-point detection with degradation-aware attribution.

The paper's core complaint is that operators stare at network KPIs
while users experience something else entirely.  The detector closes
that loop online: it watches every aggregate stream the operators emit,
flags statistically surprising level shifts the moment enough
post-shift evidence accumulates, and — when the shifted metric is an
*experience* metric (MOS, sentiment) — attributes it to the most recent
*network* metric shift inside an attribution horizon.  "Users got
unhappy at t=410, and latency jumped at t=380" is the sentence the
paper says measurement should produce.

The statistic is a plain two-sample z-score over a bounded trailing
window (reference half vs. test half), which keeps state O(1) per
metric and — critically for this repo — fully deterministic and
JSON-checkpointable.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.streaming.operators import Emission


@dataclass(frozen=True)
class ChangePoint:
    """One detected level shift.

    ``at_s`` is the event-time instant of the emission that tripped the
    threshold; ``shift_at_s`` the first test-half instant (the earliest
    the shift could have started).  ``attributed_to`` / ``attributed_at_s``
    are filled for experience metrics when a network change-point
    precedes them inside the attribution horizon.  ``suspect`` marks a
    shift whose run-up was dense with records the online trust gate
    quarantined — likely an attack burst, not a real network event
    (set by the pipeline when it runs with a gate).
    """

    at_s: float
    metric: str
    role: str
    z_score: float
    reference_mean: float
    test_mean: float
    shift_at_s: float
    attributed_to: Optional[str] = None
    attributed_at_s: Optional[float] = None
    suspect: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "at_s": self.at_s,
            "metric": self.metric,
            "role": self.role,
            "z_score": self.z_score,
            "reference_mean": self.reference_mean,
            "test_mean": self.test_mean,
            "shift_at_s": self.shift_at_s,
            "attributed_to": self.attributed_to,
            "attributed_at_s": self.attributed_at_s,
            "suspect": self.suspect,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ChangePoint":
        attributed_to = data.get("attributed_to")
        attributed_at = data.get("attributed_at_s")
        return cls(
            at_s=float(data["at_s"]),
            metric=str(data["metric"]),
            role=str(data["role"]),
            z_score=float(data["z_score"]),
            reference_mean=float(data["reference_mean"]),
            test_mean=float(data["test_mean"]),
            shift_at_s=float(data["shift_at_s"]),
            attributed_to=(
                None if attributed_to is None else str(attributed_to)
            ),
            attributed_at_s=(
                None if attributed_at is None else float(attributed_at)
            ),
            suspect=bool(data.get("suspect", False)),
        )

    def summary(self) -> str:
        line = (
            f"[cp] {self.metric} ({self.role}) shifted at t={self.at_s:.0f}s "
            f"z={self.z_score:+.2f} "
            f"({self.reference_mean:.3f} -> {self.test_mean:.3f})"
        )
        if self.attributed_to is not None:
            line += (
                f" <- {self.attributed_to} at t={self.attributed_at_s:.0f}s"
            )
        if self.suspect:
            line += " [suspect: attack burst]"
        return line


#: Smallest reference spread the z-test divides by, so a flat
#: reference window cannot make every wobble infinitely significant.
STD_FLOOR = 1e-3


class OnlineChangePointDetector:
    """Two-sample z-test over a bounded trailing emission window.

    Per metric the detector keeps the last ``reference_n + test_n``
    emissions.  Once full, it compares the test half against the
    reference half; ``|z| >= z_threshold`` declares a change point,
    after which the metric is silenced for ``min_gap_s`` of event time
    so one long shift doesn't fire on every subsequent emission.

    Window means of many samples have a tiny spread, so a pure z-test
    would fire on shifts far below anything a user could notice.  The
    ``min_shift_frac`` guard requires the mean to move by that fraction
    of the reference *scale* (``max(|ref_mean|, ref_std)``) before a
    z excursion counts.
    """

    def __init__(
        self,
        reference_n: int = 12,
        test_n: int = 4,
        z_threshold: float = 5.0,
        min_gap_s: float = 120.0,
        attribution_horizon_s: float = 300.0,
        min_shift_frac: float = 0.1,
    ) -> None:
        if reference_n < 2:
            raise ConfigError("reference_n must be >= 2")
        if test_n < 1:
            raise ConfigError("test_n must be >= 1")
        if z_threshold <= 0:
            raise ConfigError("z_threshold must be positive")
        if min_gap_s < 0:
            raise ConfigError("min_gap_s must be non-negative")
        if attribution_horizon_s < 0:
            raise ConfigError("attribution_horizon_s must be non-negative")
        if min_shift_frac < 0:
            raise ConfigError("min_shift_frac must be non-negative")
        self.reference_n = int(reference_n)
        self.test_n = int(test_n)
        self.z_threshold = float(z_threshold)
        self.min_gap_s = float(min_gap_s)
        self.attribution_horizon_s = float(attribution_horizon_s)
        self.min_shift_frac = float(min_shift_frac)
        self._tails: Dict[str, Deque[Tuple[float, float]]] = {}
        self._roles: Dict[str, str] = {}
        self._last_cp_s: Dict[str, float] = {}
        self.change_points: List[ChangePoint] = []
        self.emissions_seen = 0

    def _attribute(
        self, at_s: float
    ) -> Tuple[Optional[str], Optional[float]]:
        """Nearest preceding *network* change point inside the horizon."""
        best: Optional[ChangePoint] = None
        for cp in reversed(self.change_points):
            if cp.role != "network":
                continue
            if cp.at_s > at_s:
                continue
            if at_s - cp.at_s > self.attribution_horizon_s:
                break
            best = cp
            break
        if best is None:
            return None, None
        return best.metric, best.at_s

    def on_emission(self, emission: Emission) -> Optional[ChangePoint]:
        """Fold one aggregate in; returns a ChangePoint when one fires."""
        self.emissions_seen += 1
        metric = f"{emission.metric}:{emission.operator}"
        self._roles.setdefault(metric, emission.role)
        tail = self._tails.get(metric)
        if tail is None:
            tail = self._tails[metric] = deque(
                maxlen=self.reference_n + self.test_n
            )
        at_s = emission.at_s
        tail.append((at_s, emission.value))
        if len(tail) < tail.maxlen:
            return None
        last_cp = self._last_cp_s.get(metric)
        if last_cp is not None and at_s - last_cp < self.min_gap_s:
            return None
        reference_n = self.reference_n
        values = [v for _, v in tail]
        ref = values[:reference_n]
        test = values[reference_n:]
        ref_mean = sum(ref) / len(ref)
        ref_var = sum([(v - ref_mean) ** 2 for v in ref]) / len(ref)
        ref_std = max(ref_var ** 0.5, STD_FLOOR)
        test_mean = sum(test) / len(test)
        z = (test_mean - ref_mean) / ref_std
        if abs(z) < self.z_threshold:
            return None
        scale = max(abs(ref_mean), ref_std)
        if abs(test_mean - ref_mean) < self.min_shift_frac * scale:
            return None
        role = self._roles[metric]
        attributed_to: Optional[str] = None
        attributed_at: Optional[float] = None
        if role == "experience":
            attributed_to, attributed_at = self._attribute(at_s)
        cp = ChangePoint(
            at_s=at_s,
            metric=metric,
            role=role,
            z_score=z,
            reference_mean=ref_mean,
            test_mean=test_mean,
            shift_at_s=tail[reference_n][0],
            attributed_to=attributed_to,
            attributed_at_s=attributed_at,
        )
        self.change_points.append(cp)
        self._last_cp_s[metric] = at_s
        return cp

    # -- checkpointing ----------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        return {
            "tails": {
                metric: [[t, v] for t, v in tail]
                for metric, tail in sorted(self._tails.items())
            },
            "roles": dict(sorted(self._roles.items())),
            "last_cp_s": dict(sorted(self._last_cp_s.items())),
            "change_points": [cp.to_dict() for cp in self.change_points],
            "emissions_seen": self.emissions_seen,
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        self._tails = {}
        for metric, entries in state.get("tails", {}).items():
            tail = deque(maxlen=self.reference_n + self.test_n)
            for t, v in entries:
                tail.append((float(t), float(v)))
            self._tails[str(metric)] = tail
        self._roles = {
            str(m): str(r) for m, r in state.get("roles", {}).items()
        }
        self._last_cp_s = {
            str(m): float(t) for m, t in state.get("last_cp_s", {}).items()
        }
        self.change_points = [
            ChangePoint.from_dict(cp)
            for cp in state.get("change_points", [])
        ]
        self.emissions_seen = int(state.get("emissions_seen", 0))

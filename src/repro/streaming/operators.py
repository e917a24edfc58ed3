"""Incremental stream operators: no full recompute, ever.

Each operator consumes event-time-ordered records, folds them into O(1)
per-record state, and returns closed aggregates when the watermark
passes them; the pipeline sequences those emissions into its log.

Operator state is a plain JSON-safe dict (``state_dict`` /
``load_state``): Python's JSON round-trips binary64 floats exactly, so
a checkpointed operator resumes bit-for-bit where it left off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.streaming.records import StreamRecord

_set = object.__setattr__


@dataclass(frozen=True, init=False)
class Emission:
    """One closed aggregate leaving an operator.

    ``at_s`` is the event-time instant the aggregate describes (window
    end / sample point) — detector logic runs on event time, so a soak
    replayed with different arrival jitter detects at the same instants.

    Like :class:`~repro.streaming.records.StreamRecord`, ``__init__`` is
    written out and stores the six slots directly; the dataclass
    supplies equality, hashing, ``repr`` and frozenness.
    """

    __slots__ = ("at_s", "operator", "metric", "value", "count", "role")

    at_s: float
    operator: str
    metric: str
    value: float
    count: int
    role: str

    def __init__(
        self,
        at_s: float,
        operator: str,
        metric: str,
        value: float,
        count: int,
        role: str,
    ) -> None:
        _set(self, "at_s", at_s)
        _set(self, "operator", operator)
        _set(self, "metric", metric)
        _set(self, "value", value)
        _set(self, "count", count)
        _set(self, "role", role)

    def __setstate__(self, state: Tuple[None, Dict[str, Any]]) -> None:
        # copy and pickle restore slots through setattr, which a frozen
        # emission refuses.
        for name, value in state[1].items():
            _set(self, name, value)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "at_s": self.at_s,
            "operator": self.operator,
            "metric": self.metric,
            "value": self.value,
            "count": self.count,
            "role": self.role,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Emission":
        return cls(
            float(data["at_s"]),
            str(data["operator"]),
            str(data["metric"]),
            float(data["value"]),
            int(data["count"]),
            str(data["role"]),
        )


class SlidingWindowAggregate:
    """Per-metric sliding-window means over event time.

    Windows are ``[end - window_s, end)`` with ends at integer multiples
    of ``slide_s``.  A record lands in every window covering its event
    time — amortised ``window_s / slide_s`` cell updates, independent of
    history length, with a new cell only for a window's first record.
    A window closes (emits and frees its state) once
    the watermark passes its end; the release order downstream of the
    reorder buffer guarantees no on-time record for a closed window can
    still arrive.
    """

    def __init__(
        self,
        window_s: float,
        slide_s: float,
        name: str = "win_mean",
    ) -> None:
        if window_s <= 0 or slide_s <= 0:
            raise ConfigError("window_s and slide_s must be positive")
        if slide_s > window_s:
            raise ConfigError("slide_s must not exceed window_s")
        self.window_s = float(window_s)
        self.slide_s = float(slide_s)
        self.name = name
        # metric -> window index k -> [sum, count]; role per metric.
        self._windows: Dict[str, Dict[int, List[float]]] = {}
        self._roles: Dict[str, str] = {}
        self.closed_windows = 0

    def process(
        self, records: List[StreamRecord], watermark_s: float
    ) -> List[Emission]:
        """Fold a released batch, then close what the watermark passed.

        Each record adds its value to every window covering its event
        time, in record order.  Order-insensitive to how backpressure
        batched the records: a window only closes once the watermark is
        strictly past its end (every record belonging to it is
        guaranteed released by then), and the strict bound keeps
        boundary ties in the same drain as the decayed operator's — so
        any partitioning of the same record sequence yields the same
        emission sequence.
        """
        windows = self._windows
        slide_s = self.slide_s
        window_s = self.window_s
        floor = math.floor
        for record in records:
            metric = record.metric
            cells = windows.get(metric)
            if cells is None:
                # Only a metric's first record sets its role, and that
                # record always takes this branch.
                self._roles.setdefault(metric, record.role)
                cells = windows[metric] = {}
            t = record.event_time_s
            value = record.value
            top_s = t + window_s
            k = floor(t / slide_s) + 1
            while k * slide_s <= top_s:
                cell = cells.get(k)
                if cell is None:
                    # ``0.0 + value``, not ``value``: the sum starts at
                    # 0.0 (which turns a -0.0 value into 0.0).
                    cells[k] = [0.0 + value, 1.0]
                else:
                    cell[0] += value
                    cell[1] += 1.0
                k += 1
        return self.on_watermark(watermark_s, inclusive=False)

    def flush(self, final_s: float) -> List[Emission]:
        """End of stream: close every complete window (end <= final_s)."""
        return self.on_watermark(final_s, inclusive=True)

    def on_watermark(
        self, watermark_s: float, inclusive: bool = True
    ) -> List[Emission]:
        """Close every window whose end the watermark has passed."""
        closed: List[Emission] = []
        slide_s = self.slide_s
        for metric, cells in self._windows.items():
            role = self._roles.get(metric, "network")
            passed = [
                k for k in cells
                if (
                    k * slide_s <= watermark_s if inclusive
                    else k * slide_s < watermark_s
                )
            ]
            for k in passed:
                total, count = cells.pop(k)
                closed.append(Emission(
                    at_s=k * slide_s,
                    operator=self.name,
                    metric=metric,
                    value=total / count,
                    count=int(count),
                    role=role,
                ))
        # (at_s, metric) is unique per window, so this order is total.
        closed.sort(key=lambda e: (e.at_s, e.metric))
        self.closed_windows += len(closed)
        return closed

    # -- checkpointing ----------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        return {
            "windows": [
                [metric, k, cells[k][0], cells[k][1]]
                for metric, cells in sorted(self._windows.items())
                for k in sorted(cells)
            ],
            "roles": dict(sorted(self._roles.items())),
            "closed_windows": self.closed_windows,
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        self._windows = {}
        for metric, k, total, count in state.get("windows", []):
            self._windows.setdefault(str(metric), {})[int(k)] = [
                float(total), float(count),
            ]
        self._roles = {
            str(m): str(r) for m, r in state.get("roles", {}).items()
        }
        self.closed_windows = int(state.get("closed_windows", 0))


class DecayedAggregate:
    """Exponentially-decayed per-metric means, sampled on a fixed grid.

    The classic streaming summary: ``num`` and ``den`` both decay by
    ``0.5 ** (dt / half_life_s)`` between updates, so the mean forgets
    smoothly without storing history.  Requires non-decreasing event
    times — which the reorder buffer guarantees downstream.
    """

    def __init__(
        self,
        half_life_s: float,
        sample_every_s: float,
        name: str = "decayed_mean",
    ) -> None:
        if half_life_s <= 0:
            raise ConfigError("half_life_s must be positive")
        if sample_every_s <= 0:
            raise ConfigError("sample_every_s must be positive")
        self.half_life_s = float(half_life_s)
        self.sample_every_s = float(sample_every_s)
        self.name = name
        # metric -> [num, den, last_t, count]
        self._state: Dict[str, List[float]] = {}
        self._roles: Dict[str, str] = {}
        self._next_sample_s: Optional[float] = None

    def process(
        self, records: List[StreamRecord], watermark_s: float
    ) -> List[Emission]:
        """Fold a released batch, emitting grid samples as time passes.

        Folds and samples are interleaved in event-time order: a grid
        point ``s`` emits only after every record with event time at or
        before ``s`` is folded, and only once the watermark is strictly
        past ``s`` (a still-admissible record could carry event time
        exactly ``s``).  That makes the emission sequence a pure
        function of the released record sequence — however backpressure
        happened to batch it — which is what crash-resume byte-identity
        rests on.
        """
        emissions: List[Emission] = []
        if self._next_sample_s is None and records:
            t0 = records[0].event_time_s
            self._next_sample_s = (
                math.floor(t0 / self.sample_every_s) + 1
            ) * self.sample_every_s
        state = self._state
        half_life_s = self.half_life_s
        for record in records:
            t = record.event_time_s
            # Sample every grid point the watermark has passed that lies
            # before this record.
            while (
                self._next_sample_s < watermark_s
                and self._next_sample_s < t
            ):
                emissions += self._sample()
            metric = record.metric
            cell = state.get(metric)
            if cell is None:
                self._roles.setdefault(metric, record.role)
                state[metric] = [record.value, 1.0, t, 1.0]
            else:
                gap = t - cell[2]
                decay = 0.5 ** ((gap if gap > 0.0 else 0.0) / half_life_s)
                cell[0] = cell[0] * decay + record.value
                cell[1] = cell[1] * decay + 1.0
                cell[2] = t
                cell[3] += 1.0
        while (
            self._next_sample_s is not None
            and self._next_sample_s < watermark_s
        ):
            emissions += self._sample()
        return emissions

    def flush(self, final_s: float) -> List[Emission]:
        """End of stream: emit the remaining grid samples up to final_s.

        Every record has been folded by now, so the inclusive bound is
        safe — no admissible record with event time ``final_s`` can
        still arrive.
        """
        emissions: List[Emission] = []
        while (
            self._next_sample_s is not None
            and self._next_sample_s <= final_s
        ):
            emissions += self._sample()
        return emissions

    def _sample(self) -> List[Emission]:
        """Every metric's decayed mean at the next grid point, which
        then moves one step on.

        ``num`` and ``den`` decay by the same factor, so the mean is
        constant between folds: a grid point with no fold since the last
        one emits the same value again.
        """
        s = self._next_sample_s
        self._next_sample_s = s + self.sample_every_s
        return [
            Emission(
                s, self.name, metric, cell[0] / cell[1], int(cell[3]),
                self._roles.get(metric, "network"),
            )
            for metric, cell in sorted(self._state.items())
        ]

    # -- checkpointing ----------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        return {
            "state": {
                metric: list(cell)
                for metric, cell in sorted(self._state.items())
            },
            "roles": dict(sorted(self._roles.items())),
            "next_sample_s": self._next_sample_s,
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        self._state = {
            str(metric): [float(x) for x in cell]
            for metric, cell in state.get("state", {}).items()
        }
        self._roles = {
            str(m): str(r) for m, r in state.get("roles", {}).items()
        }
        raw = state.get("next_sample_s")
        self._next_sample_s = None if raw is None else float(raw)


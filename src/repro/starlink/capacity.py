"""Supply/demand capacity model → monthly median downlink speed.

The Fig. 7 narrative is a race between supply (satellite launches) and
demand (subscriber growth): speeds rose while the constellation filled in
coverage over a small early user base (Jan–Sep '21), dipped when ~21 K
users joined during the Jun–Aug '21 launch gap, and then declined almost
steadily as the base grew from 90 K to 1 M+ despite 37 further launches.

The model composes two ceilings:

* a **coverage ceiling** — with few satellites, a terminal spends part of
  each hour without a well-positioned beam, capping the achievable median
  regardless of load; it saturates toward the terminal cap as the
  constellation grows;
* a **capacity share** — per-user bandwidth under load.  Demand grows
  sub-linearly in subscribers (exponent ``demand_exponent``) because
  expansion into new cells and countries puts many new users on
  previously idle beams.

The two combine with a soft minimum so the binding constraint transitions
smoothly (hard ``min`` would create an artificial kink).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict

from repro.core.timeline import Month, MonthlySeries
from repro.errors import ConfigError
from repro.starlink.launches import LAUNCH_CATALOG, LaunchCatalog
from repro.starlink.subscribers import SubscriberModel


@dataclass(frozen=True)
class CapacityModel:
    """Constellation capacity vs subscriber demand.

    Attributes:
        catalog: monthly launch record.
        subscribers: monthly subscriber model.
        terminal_cap_mbps: practical per-terminal maximum.
        coverage_k: half-saturation constellation size of the coverage
            ceiling (satellites).
        share_scale: per-satellite contribution to the per-user share,
            in Mbps x sqrt(users) per satellite.
        demand_exponent: sub-linearity of demand in subscribers (0.5 ~
            "half of growth lands on fresh capacity").
        demand_saturation_users: congestion cap — once this many
            subscribers compete for busy cells, further signups are pushed
            (by waitlists and international expansion) onto fresh
            capacity, so *median*-relevant demand saturates.  This is why
            the Fig. 7 decline decelerates in late 2022 despite the
            fastest subscriber growth of the whole span.
        capability_growth: monthly fractional growth in per-satellite
            usable capacity (newer satellite generations and ground
            segment upgrades carry more traffic) — this is what makes the
            late-2022 decline decelerate.
        softmin_p: sharpness of the soft minimum between the two ceilings.
        ramp_months: months between launch and carrying traffic.
        initial_satellites: constellation size entering the span.
    """

    catalog: LaunchCatalog = field(default_factory=lambda: LAUNCH_CATALOG)
    subscribers: SubscriberModel = field(default_factory=SubscriberModel.reported)
    terminal_cap_mbps: float = 400.0
    coverage_k: float = 7400.0
    share_scale: float = 224.0
    demand_exponent: float = 0.734
    demand_saturation_users: float = 730_000.0
    capability_growth: float = 0.0013
    softmin_p: float = 4.0
    ramp_months: int = 1
    initial_satellites: int = 900

    def __post_init__(self) -> None:
        if self.terminal_cap_mbps <= 0:
            raise ConfigError("terminal_cap_mbps must be positive")
        if self.coverage_k <= 0:
            raise ConfigError("coverage_k must be positive")
        if self.share_scale <= 0:
            raise ConfigError("share_scale must be positive")
        if not 0 < self.demand_exponent <= 1:
            raise ConfigError("demand_exponent must be in (0, 1]")
        if self.capability_growth < 0:
            raise ConfigError("capability_growth must be >= 0")
        if self.demand_saturation_users <= 0:
            raise ConfigError("demand_saturation_users must be positive")
        if self.softmin_p < 1:
            raise ConfigError("softmin_p must be >= 1")
        if self.ramp_months < 0:
            raise ConfigError("ramp_months must be >= 0")
        if self.initial_satellites < 1:
            raise ConfigError("initial_satellites must be >= 1")

    def serving_satellites(self) -> Dict[Month, float]:
        """Satellites actually carrying traffic per month (ramp-lagged)."""
        months = self.catalog.months()
        cumulative = self.catalog.cumulative_satellites(self.initial_satellites)
        out: Dict[Month, float] = {}
        for i, month in enumerate(months):
            lag_index = i - self.ramp_months
            if lag_index < 0:
                out[month] = float(self.initial_satellites)
            else:
                out[month] = float(cumulative[months[lag_index]])
        return out

    def coverage_ceiling(self, satellites: float) -> float:
        """Median ceiling from beam availability alone."""
        if satellites <= 0:
            raise ConfigError("satellites must be positive")
        return self.terminal_cap_mbps * satellites / (satellites + self.coverage_k)

    def capacity_share(self, satellites: float, users: int,
                       months_elapsed: int = 0) -> float:
        """Per-user share of constellation capacity under load."""
        if users < 1:
            raise ConfigError("users must be >= 1")
        if months_elapsed < 0:
            raise ConfigError("months_elapsed must be >= 0")
        capability = (1 + self.capability_growth) ** months_elapsed
        u_sat = self.demand_saturation_users
        effective_users = u_sat * (1 - math.exp(-users / u_sat))
        return (
            self.share_scale * capability * satellites
            / effective_users**self.demand_exponent
        )

    def _soft_min(self, a: float, b: float) -> float:
        p = self.softmin_p
        return float((a**-p + b**-p) ** (-1 / p))

    def median_downlink_mbps(self) -> MonthlySeries:
        """The model's monthly median downlink speed."""
        serving = self.serving_satellites()
        subs = self.subscribers.monthly()
        values: Dict[Month, float] = {}
        for elapsed, month in enumerate(self.catalog.months()):
            if month not in subs:
                continue
            sats = serving[month]
            values[month] = self._soft_min(
                self.coverage_ceiling(sats),
                self.capacity_share(sats, subs[month], elapsed),
            )
        return MonthlySeries.from_mapping(values)

    def utilisation(self) -> MonthlySeries:
        """Demanded share / coverage ceiling per month (>1 = overloaded)."""
        serving = self.serving_satellites()
        subs = self.subscribers.monthly()
        values: Dict[Month, float] = {}
        for month in self.catalog.months():
            if month not in subs:
                continue
            sats = serving[month]
            values[month] = (
                self.coverage_ceiling(sats) / self.capacity_share(sats, subs[month])
            )
        return MonthlySeries.from_mapping(values)

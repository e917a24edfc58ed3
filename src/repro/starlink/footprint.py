"""Service footprint: where Starlink was actually available, and when.

§4.2: *"Starlink service expanded to various countries across the globe"*
— and the paper's outage evidence leans on geography ("Redditors from 14
different countries ... confirmed an outage").  This module pins the
public service-availability timeline so the corpus can be geographically
honest: an author can only post first-hand experience once their country
has service, and the pool of countries able to confirm an outage grows
over the span.

Dates follow the public rollout record (beta in the US/Canada late 2020,
UK Jan '21, and a steady cadence of country launches through 2022).
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field
from typing import Dict, List

from repro.errors import ConfigError

# Country -> first month of public availability (beta counts).
SERVICE_START: Dict[str, dt.date] = {
    "US": dt.date(2020, 10, 1),
    "CA": dt.date(2021, 1, 1),
    "UK": dt.date(2021, 1, 1),
    "DE": dt.date(2021, 3, 1),
    "NZ": dt.date(2021, 4, 1),
    "AU": dt.date(2021, 4, 1),
    "FR": dt.date(2021, 5, 1),
    "NL": dt.date(2021, 5, 1),
    "BE": dt.date(2021, 6, 1),
    "IE": dt.date(2021, 7, 1),
    "AT": dt.date(2021, 7, 1),
    "DK": dt.date(2021, 8, 1),
    "PT": dt.date(2021, 8, 1),
    "CL": dt.date(2021, 9, 1),
    "MX": dt.date(2021, 11, 1),
    "HR": dt.date(2022, 1, 1),
    "ES": dt.date(2022, 1, 1),
    "IT": dt.date(2022, 1, 1),
    "PL": dt.date(2022, 2, 1),
    "BR": dt.date(2022, 2, 1),
    "UA": dt.date(2022, 3, 1),
    "JP": dt.date(2022, 10, 1),
}


@dataclass(frozen=True)
class Footprint:
    """Queryable availability timeline."""

    service_start: Dict[str, dt.date] = field(
        default_factory=lambda: dict(SERVICE_START)
    )

    def __post_init__(self) -> None:
        if not self.service_start:
            raise ConfigError("footprint needs at least one country")

    def is_available(self, country: str, day: dt.date) -> bool:
        """Whether the service existed in a country on a given day.

        Unknown countries are treated as not-yet-served (the safe
        default for a network still rolling out).
        """
        start = self.service_start.get(country)
        return start is not None and day >= start

    def available_countries(self, day: dt.date) -> List[str]:
        return sorted(
            c for c, start in self.service_start.items() if day >= start
        )


DEFAULT_FOOTPRINT = Footprint()

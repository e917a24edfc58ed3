"""The real-world event calendar and the derived news index.

These are the public events the paper ties its Fig. 5a peaks to, plus the
roaming timeline behind the §4.1 early-detection result.  Each event
declares how the community reacts (volume multiplier, sentiment
direction, vocabulary) and whether the press covered it — the 22 Apr '22
outage famously was *not* covered, which is exactly why the paper's news
annotation comes back empty for its third-highest peak.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import ConfigError
from repro.nlp.news import NewsArticle, NewsIndex
from repro.starlink.coverage import HEADLINE_OUTAGES, Outage


@dataclass(frozen=True)
class Event:
    """One community-moving event.

    Attributes:
        date: event day.
        key: stable identifier.
        kind: ``announcement`` / ``outage`` / ``discovery``.
        sentiment: expected community reaction in [-1, 1].
        volume_boost: multiplier on that day's post volume.
        decay_days: how many days the reaction takes to fade.
        vocabulary: words the reaction posts lean on (drives word clouds).
        in_news: whether the press covered it.
        headline: the article headline if covered.
    """

    date: dt.date
    key: str
    kind: str
    sentiment: float
    volume_boost: float
    decay_days: int
    vocabulary: Tuple[str, ...]
    in_news: bool
    headline: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in ("announcement", "outage", "discovery"):
            raise ConfigError(f"unknown event kind {self.kind!r}")
        if not -1 <= self.sentiment <= 1:
            raise ConfigError("sentiment must be in [-1, 1]")
        if self.volume_boost < 1:
            raise ConfigError("volume_boost must be >= 1")
        if self.decay_days < 0:
            raise ConfigError("decay_days must be >= 0")
        if self.in_news and not self.headline:
            raise ConfigError(f"event {self.key}: in_news requires a headline")

    def intensity_on(self, day: dt.date) -> float:
        """Reaction intensity in [0, 1].

        Announcements and outages spike on the day and decay
        geometrically; discoveries (like roaming) simmer at a sustained
        level while enthusiasts keep experimenting and posting.
        """
        offset = (day - self.date).days
        if offset < 0 or offset > self.decay_days:
            return 0.0
        if self.kind == "discovery":
            return 0.35
        return 0.5**offset


# --- the calendar ---------------------------------------------------------

PREORDER_EVENT = Event(
    date=dt.date(2021, 2, 9),
    key="preorders_open",
    kind="announcement",
    sentiment=0.85,
    volume_boost=8.0,
    decay_days=3,
    vocabulary=("preorder", "deposit", "ordered", "order", "excited",
                "finally", "available", "canada", "uk"),
    in_news=True,
    headline="SpaceX begins accepting $99 preorders for Starlink internet",
)

DELAY_EVENT = Event(
    date=dt.date(2021, 11, 24),
    key="delivery_delay_email",
    kind="announcement",
    sentiment=-0.8,
    volume_boost=7.0,
    decay_days=3,
    vocabulary=("email", "delayed", "delay", "delivery", "pushback",
                "waiting", "deposit", "refund", "months"),
    in_news=True,
    headline="Starlink disappoints preorder customers by pushing back delivery",
)

ROAMING_DISCOVERY = Event(
    date=dt.date(2022, 2, 14),
    key="roaming_discovery",
    kind="discovery",
    sentiment=0.7,
    volume_boost=1.8,
    decay_days=16,
    vocabulary=("roaming", "roaming enabled", "moved", "camping",
                "travel", "address", "portable", "working"),
    in_news=False,
)

ROAMING_ANNOUNCEMENT = Event(
    date=dt.date(2022, 3, 4),
    key="roaming_announced",
    kind="announcement",
    sentiment=0.75,
    volume_boost=2.5,
    decay_days=3,
    vocabulary=("roaming", "mobile", "enabled", "announced", "tweet"),
    in_news=True,
    headline="Musk says Starlink mobile roaming enabled",
)

PORTABILITY_NOTICE = Event(
    date=dt.date(2022, 5, 3),
    key="portability_notice",
    kind="announcement",
    sentiment=0.6,
    volume_boost=1.8,
    decay_days=2,
    vocabulary=("portability", "roaming", "official", "feature", "move"),
    in_news=True,
    headline="Starlink becomes movable with new Portability option",
)


def outage_event(
    outage: Outage,
    severity_boost: float = 4.0,
    covered_damping: float = 0.5,
    uncovered_amplifier: float = 1.5,
) -> Event:
    """Derive an Event from an outage.

    An uncovered outage drives *more* Reddit discussion than a covered
    one of the same size: with no press confirmation, Reddit is where
    users go to find out whether it's just them (the paper counted ~190
    US reports for the unreported 22 Apr '22 event).  Conversely, press
    coverage satisfies the "is it just me?" urge and damps the flood.
    """
    base_boost = 1.0 + severity_boost * outage.severity
    if outage.is_headline:
        if outage.in_news:
            base_boost = 1.0 + (base_boost - 1.0) * covered_damping
        else:
            base_boost = 1.0 + (base_boost - 1.0) * uncovered_amplifier
    return Event(
        date=outage.date,
        key=f"outage_{outage.date.isoformat()}",
        kind="outage",
        sentiment=-0.85,
        volume_boost=base_boost,
        decay_days=1 if outage.is_headline else 0,
        vocabulary=("outage", "down", "offline", "disconnected",
                    "no service", "dead", "anyone else"),
        in_news=outage.in_news,
        headline=(
            f"Starlink suffers {outage.cause}" if outage.in_news else None
        ),
    )


@dataclass(frozen=True)
class EventCalendar:
    """All scheduled events plus outage-derived ones."""

    scheduled: Tuple[Event, ...] = (
        PREORDER_EVENT,
        DELAY_EVENT,
        ROAMING_DISCOVERY,
        ROAMING_ANNOUNCEMENT,
        PORTABILITY_NOTICE,
    )
    outages: Tuple[Outage, ...] = tuple(HEADLINE_OUTAGES)

    def events(self) -> List[Event]:
        out = list(self.scheduled)
        out.extend(outage_event(o) for o in self.outages)
        return sorted(out, key=lambda e: e.date)

    def active_on(self, day: dt.date) -> List[Event]:
        return [e for e in self.events() if e.intensity_on(day) > 0]

    def volume_multiplier(self, day: dt.date) -> float:
        """Combined post-volume multiplier for a day."""
        multiplier = 1.0
        for event in self.events():
            intensity = event.intensity_on(day)
            if intensity > 0:
                multiplier += (event.volume_boost - 1.0) * intensity
        return multiplier


def build_news_index(
    calendar: EventCalendar,
    launches_as_news: bool = True,
) -> NewsIndex:
    """The simulated press corpus: covered events (+ launch wire copy).

    Launch articles give the index realistic background mass so that a
    search for generic terms doesn't trivially return empty.
    """
    index = NewsIndex()
    for event in calendar.events():
        if event.in_news and event.headline:
            body_terms = " ".join(event.vocabulary)
            index.add(
                NewsArticle(
                    date=event.date,
                    headline=event.headline,
                    body=f"Starlink {body_terms}.",
                    source="tech-press",
                )
            )
    if launches_as_news:
        from repro.starlink.launches import LAUNCH_CATALOG

        for (year, month), (count, per_launch) in sorted(
            LAUNCH_CATALOG.monthly.items()
        ):
            if count == 0:
                continue
            index.add(
                NewsArticle(
                    date=dt.date(year, month, 15),
                    headline=(
                        f"SpaceX launches {count * per_launch} more "
                        f"Starlink satellites"
                    ),
                    body="Falcon 9 launch batch satellites orbit deployment.",
                    source="wire",
                )
            )
    return index

"""Screenshot rendering: ground truth → provider-specific token grid.

A :class:`Screenshot` is a list of positioned text tokens — the level of
abstraction a text-detection OCR stage hands to field extraction.  Each
provider lays its report out differently, which is precisely what makes
OCR-based aggregation across providers non-trivial (the paper pulls
reports from Ookla, Fast, Starlink's own app "and others"):

* **Ookla** labels values above them, with units on the label row;
* **Fast** shows one huge headline number (the download) and buries
  upload/latency in a small footer row;
* the **Starlink app** inlines units into the value ("112Mbps");
* **generic** trackers use ``key: value`` rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import ExtractionError
from repro.social.schema import PROVIDERS, SpeedTestShare


@dataclass(frozen=True)
class PlacedToken:
    """One piece of text at a position (origin top-left, y grows down)."""

    text: str
    x: int
    y: int
    size: int = 12  # font size — headline numbers are big

    def __post_init__(self) -> None:
        if not self.text:
            raise ExtractionError("empty token")
        if self.x < 0 or self.y < 0:
            raise ExtractionError("token position must be non-negative")
        if self.size <= 0:
            raise ExtractionError("token size must be positive")


@dataclass(frozen=True)
class Screenshot:
    """A rendered report: canvas dimensions plus placed tokens."""

    width: int
    height: int
    tokens: Tuple[PlacedToken, ...]

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ExtractionError("canvas must have positive dimensions")

    def reading_order(self) -> List[PlacedToken]:
        """Tokens sorted top-to-bottom, left-to-right (row tolerance 8px)."""
        return sorted(self.tokens, key=lambda t: (t.y // 8, t.x))


def _fmt(value: float) -> str:
    """Format a number the way test apps do (no trailing .0)."""
    if abs(value - round(value)) < 0.05:
        return str(int(round(value)))
    return f"{value:.1f}"


def render_screenshot(share: SpeedTestShare) -> Screenshot:
    """Lay out a speed-test report for its provider."""
    if share.provider not in PROVIDERS:
        raise ExtractionError(f"unknown provider {share.provider!r}")
    dl, ul, lat = (
        _fmt(share.download_mbps),
        _fmt(share.upload_mbps),
        _fmt(share.latency_ms),
    )
    if share.provider == "ookla":
        tokens = (
            PlacedToken("SPEEDTEST", 120, 20, size=18),
            PlacedToken("PING", 40, 60), PlacedToken("ms", 80, 60),
            PlacedToken(lat, 50, 80, size=16),
            PlacedToken("DOWNLOAD", 40, 130), PlacedToken("Mbps", 130, 130),
            PlacedToken(dl, 50, 160, size=28),
            PlacedToken("UPLOAD", 220, 130), PlacedToken("Mbps", 300, 130),
            PlacedToken(ul, 230, 160, size=28),
        )
        return Screenshot(width=360, height=220, tokens=tokens)
    if share.provider == "fast":
        tokens = (
            PlacedToken("FAST", 150, 30, size=20),
            PlacedToken(dl, 120, 100, size=48),
            PlacedToken("Mbps", 220, 110, size=16),
            PlacedToken("Latency", 40, 180), PlacedToken(lat, 100, 180),
            PlacedToken("ms", 130, 180),
            PlacedToken("Upload", 200, 180), PlacedToken(ul, 260, 180),
            PlacedToken("Mbps", 290, 180),
        )
        return Screenshot(width=360, height=220, tokens=tokens)
    if share.provider == "starlink_app":
        tokens = (
            PlacedToken("STARLINK", 120, 20, size=16),
            PlacedToken("SPEED", 40, 50), PlacedToken("TEST", 100, 50),
            PlacedToken("DOWNLOAD", 40, 100),
            PlacedToken(f"{dl}Mbps", 200, 100, size=20),
            PlacedToken("UPLOAD", 40, 140),
            PlacedToken(f"{ul}Mbps", 200, 140, size=20),
            PlacedToken("LATENCY", 40, 180),
            PlacedToken(f"{lat}ms", 200, 180, size=20),
        )
        return Screenshot(width=320, height=220, tokens=tokens)
    # generic tracker: "key: value unit" rows
    tokens = (
        PlacedToken("Broadband", 40, 20), PlacedToken("Report", 120, 20),
        PlacedToken("Down:", 40, 70), PlacedToken(dl, 100, 70),
        PlacedToken("Mbps", 140, 70),
        PlacedToken("Up:", 40, 100), PlacedToken(ul, 100, 100),
        PlacedToken("Mbps", 140, 100),
        PlacedToken("Ping:", 40, 130), PlacedToken(lat, 100, 130),
        PlacedToken("ms", 140, 130),
    )
    return Screenshot(width=300, height=180, tokens=tokens)

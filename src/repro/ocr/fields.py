"""Normalised output schema of the OCR pipeline."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ExtractionError


@dataclass(frozen=True)
class ExtractedReport:
    """Fields recovered from one screenshot.

    Attributes:
        provider: detected test provider key, or ``"unknown"``.
        download_mbps / upload_mbps / latency_ms: normalised values;
            None when the field could not be recovered.
        confidence: extraction confidence in [0, 1]; each repaired
            character and each missing field lowers it.
    """

    provider: str
    download_mbps: Optional[float]
    upload_mbps: Optional[float]
    latency_ms: Optional[float]
    confidence: float

    def __post_init__(self) -> None:
        if not 0 <= self.confidence <= 1:
            raise ExtractionError(
                f"confidence must be in [0, 1], got {self.confidence}"
            )
        for name in ("download_mbps", "upload_mbps", "latency_ms"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ExtractionError(f"{name} must be positive or None")

    @property
    def has_download(self) -> bool:
        """The Fig. 7 analysis only strictly needs the downlink number."""
        return self.download_mbps is not None

"""OCR noise: what a phone photo of a screen does to text.

Three corruption channels, each with a tunable rate:

* **character confusion** — visually similar glyph swaps, the classic OCR
  failure (``0``↔``O``, ``1``↔``l``, ``5``↔``S``, ``8``↔``B``, ``.``↔``,``);
* **character dropout** — glyphs lost to glare or compression;
* **token loss** — whole tokens missed by the text detector (small fonts
  are likelier victims).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.errors import ConfigError
from repro.ocr.render import PlacedToken, Screenshot

CONFUSIONS: Dict[str, str] = {
    "0": "O", "O": "0", "o": "0",
    "1": "l", "l": "1", "I": "1",
    "5": "S", "S": "5", "s": "5",
    "8": "B", "B": "8",
    "6": "b", "b": "6",
    "2": "Z", "Z": "2",
    ".": ",", ",": ".",
}


@dataclass(frozen=True)
class NoiseModel:
    """Corruption rates for the three channels.

    Defaults model a decent phone photo: a few percent of characters
    confused, occasional dropouts, small tokens sometimes missed.
    """

    confusion_rate: float = 0.03
    dropout_rate: float = 0.01
    token_loss_rate: float = 0.02
    small_font_penalty: float = 2.0  # token-loss multiplier below 12px

    def __post_init__(self) -> None:
        for name in ("confusion_rate", "dropout_rate", "token_loss_rate"):
            value = getattr(self, name)
            if not 0 <= value <= 1:
                raise ConfigError(f"{name} must be in [0, 1], got {value}")
        if self.small_font_penalty < 1:
            raise ConfigError("small_font_penalty must be >= 1")

    @classmethod
    def clean(cls) -> "NoiseModel":
        """No corruption — for pipeline tests."""
        return cls(confusion_rate=0.0, dropout_rate=0.0, token_loss_rate=0.0)

    def _corrupt_text(self, rng: np.random.Generator, text: str) -> str:
        out: List[str] = []
        for ch in text:
            roll = rng.random()
            if roll < self.dropout_rate:
                continue
            if roll < self.dropout_rate + self.confusion_rate and ch in CONFUSIONS:
                out.append(CONFUSIONS[ch])
            else:
                out.append(ch)
        return "".join(out)

    def apply(self, rng: np.random.Generator, screenshot: Screenshot) -> Screenshot:
        """Return a corrupted copy of the screenshot."""
        tokens: List[PlacedToken] = []
        for token in screenshot.tokens:
            loss = self.token_loss_rate
            if token.size < 12:
                loss = min(1.0, loss * self.small_font_penalty)
            if rng.random() < loss:
                continue
            text = self._corrupt_text(rng, token.text)
            if not text:
                continue
            tokens.append(
                PlacedToken(text=text, x=token.x, y=token.y, size=token.size)
            )
        return Screenshot(
            width=screenshot.width,
            height=screenshot.height,
            tokens=tuple(tokens),
        )

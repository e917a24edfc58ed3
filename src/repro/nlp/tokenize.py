"""Tokenisation for social-media text.

Handles the quirks that matter for sentiment scoring on Reddit posts:
contractions are kept together (``isn't``), emphasis is preserved for the
scorer (ALL-CAPS tokens keep their case), and URLs / user mentions are
dropped rather than polluting word clouds.
"""

from __future__ import annotations

import re
from typing import List

_URL_RE = re.compile(r"https?://\S+|www\.\S+")
_MENTION_RE = re.compile(r"/?u/[A-Za-z0-9_-]+|/?r/[A-Za-z0-9_]+")
# Words, numbers, punctuation bursts, and emoji (kept as single tokens —
# Reddit sentiment often lives in them).
_TOKEN_RE = re.compile(
    r"[A-Za-z]+(?:'[A-Za-z]+)?|\d+(?:\.\d+)?|[!?]+"
    r"|[\U0001F300-\U0001FAFF☀-➿]"
)


def tokenize(text: str) -> List[str]:
    """Split text into word / number / punctuation-burst tokens.

    >>> tokenize("Starlink isn't working!!! 50 Mbps down")
    ["Starlink", "isn't", 'working', '!!!', '50', 'Mbps', 'down']
    """
    if not isinstance(text, str):
        raise TypeError(f"expected str, got {type(text).__name__}")
    # Each substitution runs only where it can match: every URL match
    # holds "://" or "www.", every mention match "u/" or "r/", and the
    # space a URL becomes cannot form either.
    if "://" in text or "www." in text:
        text = _URL_RE.sub(" ", text)
    if "u/" in text or "r/" in text:
        text = _MENTION_RE.sub(" ", text)
    return _TOKEN_RE.findall(text)


def words(text: str) -> List[str]:
    """Lowercased alphabetic tokens only (word-cloud input)."""
    return [t.lower() for t in tokenize(text) if t[0].isalpha()]


def bigrams(tokens: List[str]) -> List[str]:
    """Adjacent token pairs joined by a space ("roaming enabled")."""
    return [f"{a} {b}" for a, b in zip(tokens, tokens[1:])]

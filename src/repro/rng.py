"""Deterministic random-number utilities.

All stochastic components of the library draw from ``numpy.random.Generator``
instances derived from a single root seed, so every dataset, corpus and
simulation in this repository is exactly reproducible.  Components that need
independent streams derive them with :func:`derive` using stable string keys
— adding a new component never perturbs the streams of existing ones.
"""

from __future__ import annotations

import hashlib

import numpy as np

DEFAULT_SEED = 20231128  # HotNets '23 opening day.


def make_rng(seed: int = DEFAULT_SEED) -> np.random.Generator:
    """Create a root generator from an integer seed."""
    return np.random.default_rng(seed)


def derive(seed: int, *keys: str) -> np.random.Generator:
    """Derive an independent generator from a root seed and string keys.

    The keys are hashed (SHA-256) together with the seed, so streams for
    distinct keys are statistically independent and stable across runs and
    platforms.

    >>> a = derive(1, "telemetry")
    >>> b = derive(1, "telemetry")
    >>> float(a.random()) == float(b.random())
    True
    """
    digest = hashlib.sha256()
    digest.update(str(int(seed)).encode("ascii"))
    for key in keys:
        digest.update(b"\x00")
        digest.update(key.encode("utf-8"))
    child_seed = int.from_bytes(digest.digest()[:8], "big")
    return np.random.default_rng(child_seed)

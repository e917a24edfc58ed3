"""Oracle for the Gilbert–Elliott session loss fast path.

:func:`interval_loss_rates` is the loop
:meth:`~repro.netsim.loss.GilbertElliottLoss.interval_loss_rates` ran
before it bound its draws to locals and walked each bad run's
intervals incrementally.  It lives here only so tests can pin the code
in ``src/`` against it draw for draw; nothing in ``src/`` calls it.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.netsim.loss import PACKETS_PER_SECOND, GilbertElliottLoss


def interval_loss_rates(
    chain: GilbertElliottLoss,
    rng: np.random.Generator,
    n_intervals: int,
    duration_s: float = 5.0,
) -> np.ndarray:
    """Realised loss fraction for ``n_intervals`` consecutive intervals."""
    if n_intervals < 1:
        raise ConfigError(f"n_intervals must be >= 1, got {n_intervals}")
    packets_per_interval = max(1, int(duration_s * PACKETS_PER_SECOND))
    total = n_intervals * packets_per_interval
    if chain.rate == 0:
        return np.zeros(n_intervals)
    p_gb, p_bg = chain._transition_probs()
    if p_gb >= 1.0:  # permanently bad
        lost = rng.binomial(
            packets_per_interval, chain.bad_loss, size=n_intervals
        )
        return lost / packets_per_interval

    bad_packets = np.zeros(n_intervals, dtype=float)
    pos = 0
    bad = chain._state_bad
    while pos < total:
        p_leave = p_bg if bad else p_gb
        if p_leave <= 0:
            run = total - pos
        else:
            run = int(rng.geometric(p_leave))
        run = min(run, total - pos)
        if bad and run > 0:
            start_iv = pos // packets_per_interval
            end_iv = (pos + run - 1) // packets_per_interval
            for iv in range(start_iv, end_iv + 1):
                lo = max(pos, iv * packets_per_interval)
                hi = min(pos + run, (iv + 1) * packets_per_interval)
                bad_packets[iv] += rng.binomial(hi - lo, chain.bad_loss)
        pos += run
        bad = not bad
    chain._state_bad = bad
    return bad_packets / packets_per_interval

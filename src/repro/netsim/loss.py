"""Packet-loss process: the Gilbert–Elliott chain.

:class:`GilbertElliottLoss` is the classic two-state Markov model in
which a path alternates between a *good* state (near-zero loss) and a
*bad* state (heavy loss).  Bursty loss is what makes forward error
correction partially ineffective, which in turn shapes how well the
application-layer safeguards of :mod:`repro.netsim.mitigation` hide loss
from the user — the mechanism behind the paper's observation that loss
up to 2 % barely moves engagement (Fig. 1, middle-left).

``interval_loss_rates`` returns the realised loss fraction over each
five-second reporting interval of a session; the telemetry client is
modelled as counting lost/total packets per interval, exactly what a real
RTP receiver report provides.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError

PACKETS_PER_SECOND = 50  # 20 ms audio/video packetisation.


@dataclass
class GilbertElliottLoss:
    """Two-state Markov (Gilbert–Elliott) loss process.

    Attributes:
        rate: target *mean* loss rate; state parameters are derived so the
            stationary loss rate matches it.
        burstiness: in [0, 1); higher values make the bad state stickier
            (longer loss bursts at the same mean rate).
        bad_loss: per-packet loss probability while in the bad state.
    """

    rate: float
    burstiness: float = 0.3
    bad_loss: float = 0.5
    _state_bad: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.rate <= 1:
            raise ConfigError(f"loss rate must be in [0, 1], got {self.rate}")
        if not 0 <= self.burstiness < 1:
            raise ConfigError(f"burstiness must be in [0, 1), got {self.burstiness}")
        if not 0 < self.bad_loss <= 1:
            raise ConfigError(f"bad_loss must be in (0, 1], got {self.bad_loss}")
        if self.rate > self.bad_loss:
            # Cannot reach the target mean if even the bad state loses less.
            raise ConfigError(
                f"mean rate {self.rate} exceeds bad-state loss {self.bad_loss}"
            )

    def _transition_probs(self) -> tuple:
        """(p_good_to_bad, p_bad_to_good) hitting the stationary rate.

        With good-state loss 0 and bad-state loss ``bad_loss``, the
        stationary bad-state occupancy must be ``rate / bad_loss``.  The
        bad→good probability sets burst length: mean burst length is
        ``1 / p_bg``, scaled up by burstiness.
        """
        pi_bad = self.rate / self.bad_loss
        if pi_bad >= 1.0:
            return 1.0, 0.0
        p_bg = (1 - self.burstiness) * 0.5 + 1e-6
        p_gb = p_bg * pi_bad / (1 - pi_bad)
        return min(1.0, p_gb), min(1.0, p_bg)

    def expected_burst_length(self) -> float:
        """Mean number of packets per bad-state visit."""
        _, p_bg = self._transition_probs()
        if p_bg == 0:
            return float("inf")
        return 1.0 / p_bg

    def interval_loss_rates(
        self,
        rng: np.random.Generator,
        n_intervals: int,
        duration_s: float = 5.0,
    ) -> np.ndarray:
        """Realised loss fraction for ``n_intervals`` consecutive intervals.

        Instead of stepping the chain packet by packet, alternate
        geometric good/bad sojourns (state run lengths) across the whole
        session and bin bad-state packets into intervals: O(number of
        state runs) instead of O(number of packets).  The chain's state
        persists across calls.
        """
        if n_intervals < 1:
            raise ConfigError(f"n_intervals must be >= 1, got {n_intervals}")
        packets_per_interval = max(1, int(duration_s * PACKETS_PER_SECOND))
        total = n_intervals * packets_per_interval
        if self.rate == 0:
            return np.zeros(n_intervals)
        p_gb, p_bg = self._transition_probs()
        if p_gb >= 1.0:  # permanently bad
            lost = rng.binomial(packets_per_interval, self.bad_loss, size=n_intervals)
            return lost / packets_per_interval

        # Record-path generation spends most of its time in this loop:
        # the draws are bound to locals, losses count as ints and each
        # bad run walks its intervals edge to edge.
        geometric = rng.geometric
        binomial = rng.binomial
        bad_loss = self.bad_loss
        lost = [0] * n_intervals
        pos = 0
        bad = self._state_bad
        while pos < total:
            p_leave = p_bg if bad else p_gb
            end = total if p_leave <= 0 else pos + geometric(p_leave)
            if end > total:
                end = total
            if bad:
                # Spread this bad run's packets over the intervals it spans,
                # thinning by the bad-state per-packet loss probability.
                iv = pos // packets_per_interval
                edge = (iv + 1) * packets_per_interval
                while edge < end:
                    lost[iv] += binomial(edge - pos, bad_loss)
                    pos = edge
                    edge += packets_per_interval
                    iv += 1
                lost[iv] += binomial(end - pos, bad_loss)
            pos = end
            bad = not bad
        self._state_bad = bad
        return np.array(lost, dtype=float) / packets_per_interval

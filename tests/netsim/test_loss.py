"""Tests for the loss processes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.netsim.loss import GilbertElliottLoss
from repro.rng import derive
from tests.netsim import oracle


class TestGilbertElliott:
    def test_zero_rate_is_lossless(self, fresh_rng):
        chain = GilbertElliottLoss(rate=0.0)
        assert chain.interval_loss_rates(fresh_rng, 10).sum() == 0.0

    def test_fast_path_matches_mean(self):
        rng = derive(12, "ge-fast")
        chain = GilbertElliottLoss(rate=0.02, burstiness=0.3)
        rates = chain.interval_loss_rates(rng, 2000)
        assert rates.mean() == pytest.approx(0.02, abs=0.006)

    def test_fast_path_shape_and_bounds(self, fresh_rng):
        chain = GilbertElliottLoss(rate=0.05, burstiness=0.5)
        rates = chain.interval_loss_rates(fresh_rng, 50)
        assert rates.shape == (50,)
        assert (rates >= 0).all() and (rates <= 1).all()

    def test_burstiness_increases_variance(self):
        smooth_rng = derive(13, "ge-smooth")
        bursty_rng = derive(13, "ge-bursty")
        smooth = GilbertElliottLoss(rate=0.02, burstiness=0.0)
        bursty = GilbertElliottLoss(rate=0.02, burstiness=0.9)
        var_smooth = smooth.interval_loss_rates(smooth_rng, 1500).var()
        var_bursty = bursty.interval_loss_rates(bursty_rng, 1500).var()
        assert var_bursty > var_smooth

    def test_burstiness_lengthens_bursts(self):
        short = GilbertElliottLoss(rate=0.02, burstiness=0.0)
        long = GilbertElliottLoss(rate=0.02, burstiness=0.8)
        assert long.expected_burst_length() > short.expected_burst_length()

    def test_rejects_rate_above_bad_loss(self):
        with pytest.raises(ConfigError):
            GilbertElliottLoss(rate=0.6, bad_loss=0.5)

    def test_rejects_burstiness_one(self):
        with pytest.raises(ConfigError):
            GilbertElliottLoss(rate=0.01, burstiness=1.0)

    def test_state_persists_across_intervals(self, fresh_rng):
        chain = GilbertElliottLoss(rate=0.3, burstiness=0.9, bad_loss=0.9)
        chain.interval_loss_rates(fresh_rng, 1)
        # Not asserting a specific state — only that the attribute is
        # maintained and boolean (the chain is stateful by design).
        assert isinstance(chain._state_bad, bool)

    def test_rejects_bad_n_intervals(self, fresh_rng):
        chain = GilbertElliottLoss(rate=0.01)
        with pytest.raises(ConfigError):
            chain.interval_loss_rates(fresh_rng, 0)

    @given(st.floats(min_value=0.0, max_value=0.2))
    @settings(max_examples=25, deadline=None)
    def test_rates_always_bounded(self, rate):
        rng = derive(17, "ge-prop", str(rate))
        chain = GilbertElliottLoss(rate=rate, burstiness=0.4)
        values = chain.interval_loss_rates(rng, 5)
        assert ((0.0 <= values) & (values <= 1.0)).all()


def _run_both(rate, burstiness, bad_loss, n_intervals, duration_s,
              start_bad, seed):
    """Run the fast path and the oracle on twin chains and generators."""
    rngs = [derive(seed, "ge-oracle"), derive(seed, "ge-oracle")]
    chains = [
        GilbertElliottLoss(rate=rate, burstiness=burstiness,
                           bad_loss=bad_loss, _state_bad=start_bad)
        for _ in rngs
    ]
    outs = ([], [])
    # Twice in a row, so the carried state of the first call matters.
    for _ in range(2):
        outs[0].append(
            chains[0].interval_loss_rates(rngs[0], n_intervals, duration_s)
        )
        outs[1].append(
            oracle.interval_loss_rates(
                chains[1], rngs[1], n_intervals, duration_s
            )
        )
    return chains, rngs, outs


class TestIntervalLossRatesOracle:
    """The fast path draws exactly what the old per-run loop drew."""

    def assert_agree(self, *args):
        chains, rngs, (fast, slow) = _run_both(*args)
        for a, b in zip(fast, slow):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        assert chains[0]._state_bad == chains[1]._state_bad
        assert rngs[0].random() == rngs[1].random()

    @given(
        rate=st.one_of(
            st.just(0.0), st.floats(min_value=1e-6, max_value=1.0),
        ),
        burstiness=st.floats(min_value=0.0, max_value=0.99),
        bad_loss=st.floats(min_value=0.05, max_value=1.0),
        n_intervals=st.integers(min_value=1, max_value=40),
        duration_s=st.sampled_from([0.02, 0.3, 1.0, 5.0]),
        start_bad=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle(self, rate, burstiness, bad_loss, n_intervals,
                            duration_s, start_bad, seed):
        rate = min(rate, bad_loss)
        self.assert_agree(rate, burstiness, bad_loss, n_intervals,
                          duration_s, start_bad, seed)

    @pytest.mark.parametrize("rate, bad_loss", [
        (0.0, 0.5),   # lossless: no draws at all
        (0.5, 0.5),   # stationary bad occupancy 1: permanently bad
        (0.49, 0.5),  # p_gb clamps to 1: permanently bad
        (0.2, 0.5),   # long bad runs straddling many intervals
    ])
    @pytest.mark.parametrize("start_bad", [False, True])
    def test_branches_match_oracle(self, rate, bad_loss, start_bad):
        self.assert_agree(rate, 0.95, bad_loss, 30, 5.0, start_bad, 3)

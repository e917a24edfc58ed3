"""Deadline: a monotonic per-query budget on the injectable clock."""

import pickle

import pytest

from repro.errors import ConfigError, DeadlineExceededError, QueryRejectedError
from repro.resilience import ManualClock
from repro.serving import Deadline


@pytest.fixture
def clock():
    return ManualClock()


class TestBudgetArithmetic:
    def test_remaining_shrinks_with_the_clock(self, clock):
        deadline = Deadline.start(clock, 2.0)
        assert deadline.remaining() == pytest.approx(2.0)
        clock.advance(0.75)
        assert deadline.remaining() == pytest.approx(1.25)

    def test_remaining_goes_negative_past_expiry(self, clock):
        deadline = Deadline.start(clock, 1.0)
        clock.advance(1.5)
        assert deadline.remaining() == pytest.approx(-0.5)
        assert deadline.expired()
        assert deadline.overrun() == pytest.approx(0.5)

    def test_not_expired_inside_budget(self, clock):
        deadline = Deadline.start(clock, 1.0)
        clock.advance(0.999)
        assert not deadline.expired()
        assert deadline.overrun() == 0.0

    def test_expires_at_is_absolute(self, clock):
        clock.advance(10.0)
        deadline = Deadline.start(clock, 3.0)
        assert deadline.expires_at == pytest.approx(13.0)


class TestClamp:
    def test_clamp_passes_small_timeouts_through(self, clock):
        deadline = Deadline.start(clock, 5.0)
        assert deadline.clamp(1.0) == pytest.approx(1.0)

    def test_clamp_cuts_to_remaining_budget(self, clock):
        deadline = Deadline.start(clock, 2.0)
        clock.advance(1.5)
        assert deadline.clamp(1.0) == pytest.approx(0.5)

    def test_clamp_none_becomes_remaining(self, clock):
        deadline = Deadline.start(clock, 2.0)
        clock.advance(0.5)
        assert deadline.clamp(None) == pytest.approx(1.5)

    def test_expired_deadline_clamps_to_zero(self, clock):
        deadline = Deadline.start(clock, 1.0)
        clock.advance(2.0)
        assert deadline.clamp(1.0) == 0.0
        assert deadline.clamp(None) == 0.0

    def test_negative_timeout_clamps_to_zero(self, clock):
        # A nonsensical negative timeout must never leak a negative
        # allowance downstream, even while budget remains.
        deadline = Deadline.start(clock, 5.0)
        assert deadline.clamp(-1.0) == 0.0

    def test_exactly_exhausted_budget_is_expired_and_clamps_to_zero(
        self, clock
    ):
        deadline = Deadline.start(clock, 1.0)
        clock.advance(1.0)  # remaining is exactly 0.0
        assert deadline.remaining() == 0.0
        assert deadline.expired()
        assert deadline.overrun() == 0.0
        assert deadline.clamp(0.5) == 0.0
        assert deadline.clamp(None) == 0.0

    def test_zero_timeout_stays_zero(self, clock):
        deadline = Deadline.start(clock, 5.0)
        assert deadline.clamp(0.0) == 0.0


class TestValidation:
    def test_zero_budget_rejected(self, clock):
        with pytest.raises(ConfigError):
            Deadline.start(clock, 0.0)

    def test_negative_budget_rejected(self, clock):
        with pytest.raises(ConfigError):
            Deadline.start(clock, -1.0)


class TestTypedErrorsPickle:
    """The serving errors cross process boundaries; they must pickle."""

    def test_query_rejected_roundtrip(self):
        err = QueryRejectedError("queue_full", "batch", "8 pending (max 8)")
        clone = pickle.loads(pickle.dumps(err))
        assert clone.reason == "queue_full"
        assert clone.priority == "batch"
        assert clone.detail == "8 pending (max 8)"
        assert str(clone) == str(err)

    def test_query_rejected_unknown_reason(self):
        with pytest.raises(ValueError):
            QueryRejectedError("because")

    @pytest.mark.parametrize(
        "reason", ["queue_full", "deadline_infeasible", "draining"],
    )
    def test_every_rejection_reason_roundtrips(self, reason):
        # Every reason must survive a pickle boundary with fields intact.
        err = QueryRejectedError(reason, "monitoring", "detail text")
        clone = pickle.loads(pickle.dumps(err))
        assert clone.reason == reason
        assert clone.priority == "monitoring"
        assert clone.detail == "detail text"
        assert str(clone) == str(err)

    def test_deadline_exceeded_roundtrip(self):
        err = DeadlineExceededError(1.5, 0.25)
        clone = pickle.loads(pickle.dumps(err))
        assert clone.budget_s == pytest.approx(1.5)
        assert clone.overrun_s == pytest.approx(0.25)
        assert str(clone) == str(err)

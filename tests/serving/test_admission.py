"""AdmissionController: bounded queueing and priority-aware shedding."""

import pytest

from repro.errors import ConfigError, QueryRejectedError
from repro.resilience import ManualClock
from repro.serving import AdmissionController, Deadline, Ticket


def make_ticket(ticket_id, priority="interactive", deadline=None):
    return Ticket(id=ticket_id, query=None, priority=priority,
                  submitted_at=0.0, deadline=deadline)


class TestConfiguration:
    @pytest.mark.parametrize("kwargs", [
        {"max_pending": 0},
        {"max_concurrent": 0},
        {"shed_policy": "random"},
        {"min_feasible_s": -1.0},
    ])
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            AdmissionController(**kwargs)

    def test_unknown_priority_rejected(self):
        controller = AdmissionController()
        with pytest.raises(ConfigError):
            controller.try_admit(make_ticket(0, priority="urgent"))


class TestQueueBounds:
    def test_admits_up_to_max_pending(self):
        controller = AdmissionController(max_pending=3, shed_policy="reject")
        for i in range(3):
            assert controller.try_admit(make_ticket(i)) == ()
        assert controller.pending_count() == 3

    def test_reject_policy_refuses_incoming(self):
        controller = AdmissionController(max_pending=1, shed_policy="reject")
        controller.try_admit(make_ticket(0))
        with pytest.raises(QueryRejectedError) as exc_info:
            controller.try_admit(make_ticket(1))
        assert exc_info.value.reason == "queue_full"
        # The refused ticket is NOT in the queue.
        assert controller.pending_count() == 1

    def test_lifo_policy_evicts_globally_newest(self):
        controller = AdmissionController(max_pending=3, shed_policy="lifo")
        controller.try_admit(make_ticket(0, "monitoring"))
        controller.try_admit(make_ticket(1, "interactive"))
        controller.try_admit(make_ticket(2, "batch"))
        evicted = controller.try_admit(make_ticket(3, "monitoring"))
        assert [t.id for t in evicted] == [2]
        assert controller.pending_count() == 3

    def test_priority_policy_evicts_lowest_class_first(self):
        controller = AdmissionController(max_pending=4, shed_policy="priority")
        controller.try_admit(make_ticket(0, "batch"))
        controller.try_admit(make_ticket(1, "monitoring"))
        controller.try_admit(make_ticket(2, "batch"))
        controller.try_admit(make_ticket(3, "monitoring"))
        # Incoming interactive evicts the newest monitoring entry first.
        evicted = controller.try_admit(make_ticket(4, "interactive"))
        assert [t.id for t in evicted] == [3]
        # Next interactive takes the remaining monitoring entry.
        evicted = controller.try_admit(make_ticket(5, "interactive"))
        assert [t.id for t in evicted] == [1]
        # Then the newest batch entry.
        evicted = controller.try_admit(make_ticket(6, "interactive"))
        assert [t.id for t in evicted] == [2]

    def test_priority_policy_never_evicts_same_or_higher_class(self):
        controller = AdmissionController(max_pending=2, shed_policy="priority")
        controller.try_admit(make_ticket(0, "interactive"))
        controller.try_admit(make_ticket(1, "batch"))
        # Incoming batch may not evict batch or interactive.
        with pytest.raises(QueryRejectedError) as exc_info:
            controller.try_admit(make_ticket(2, "batch"))
        assert exc_info.value.reason == "queue_full"
        # Incoming monitoring (lowest class) has nobody below it.
        with pytest.raises(QueryRejectedError):
            controller.try_admit(make_ticket(3, "monitoring"))


class TestDeadlineFeasibility:
    def test_infeasible_deadline_is_shed_at_the_door(self):
        clock = ManualClock()
        controller = AdmissionController(min_feasible_s=0.5)
        deadline = Deadline.start(clock, 1.0)
        clock.advance(0.75)  # 0.25s left < 0.5s minimum feasible
        with pytest.raises(QueryRejectedError) as exc_info:
            controller.try_admit(make_ticket(0, deadline=deadline))
        assert exc_info.value.reason == "deadline_infeasible"

    def test_feasible_deadline_admitted(self):
        clock = ManualClock()
        controller = AdmissionController(min_feasible_s=0.5)
        deadline = Deadline.start(clock, 1.0)
        assert controller.try_admit(make_ticket(0, deadline=deadline)) == ()

    def test_expired_at_admission_is_refused_never_started(self):
        # A query whose deadline already passed (negative remaining) is
        # refused at the door as deadline_infeasible — even with a zero
        # minimum-feasible floor — and never enters the queue.
        clock = ManualClock()
        controller = AdmissionController(min_feasible_s=0.0)
        deadline = Deadline.start(clock, 1.0)
        clock.advance(1.5)  # remaining is -0.5
        with pytest.raises(QueryRejectedError) as exc_info:
            controller.try_admit(make_ticket(0, deadline=deadline))
        assert exc_info.value.reason == "deadline_infeasible"
        assert controller.pending_count() == 0
        assert controller.next_ticket() is None

    def test_exactly_zero_remaining_is_refused(self):
        clock = ManualClock()
        controller = AdmissionController(min_feasible_s=0.0)
        deadline = Deadline.start(clock, 1.0)
        clock.advance(1.0)  # remaining is exactly 0.0
        with pytest.raises(QueryRejectedError) as exc_info:
            controller.try_admit(make_ticket(0, deadline=deadline))
        assert exc_info.value.reason == "deadline_infeasible"
        assert controller.pending_count() == 0


class TestExecutionHandoff:
    def test_next_ticket_is_priority_then_fifo(self):
        controller = AdmissionController(max_pending=8, max_concurrent=8)
        controller.try_admit(make_ticket(0, "monitoring"))
        controller.try_admit(make_ticket(1, "batch"))
        controller.try_admit(make_ticket(2, "interactive"))
        controller.try_admit(make_ticket(3, "interactive"))
        order = [controller.next_ticket().id for _ in range(4)]
        assert order == [2, 3, 1, 0]

    def test_max_concurrent_gates_handoff(self):
        controller = AdmissionController(max_pending=4, max_concurrent=1)
        controller.try_admit(make_ticket(0))
        controller.try_admit(make_ticket(1))
        first = controller.next_ticket()
        assert first.id == 0
        assert controller.next_ticket() is None  # saturated
        controller.release(first)
        assert controller.next_ticket().id == 1

    def test_release_unknown_ticket_is_an_error(self):
        controller = AdmissionController()
        with pytest.raises(ConfigError):
            controller.release(make_ticket(42))


class TestShedTieBreaks:
    """Shedding tie-breaks are insertion-order stable, never id-based."""

    def test_lifo_evicts_latest_admitted_despite_out_of_order_ids(self):
        # Callers may mint ids out of order (a cluster router minting
        # ids per replica does); "newest" must mean *last admitted*.
        controller = AdmissionController(max_pending=3, shed_policy="lifo")
        controller.try_admit(make_ticket(10))
        controller.try_admit(make_ticket(2))
        controller.try_admit(make_ticket(5))
        evicted = controller.try_admit(make_ticket(1))
        assert [t.id for t in evicted] == [5]

    def test_priority_evicts_latest_admitted_of_lowest_class(self):
        controller = AdmissionController(max_pending=2,
                                         shed_policy="priority")
        controller.try_admit(make_ticket(9, "monitoring"))
        controller.try_admit(make_ticket(3, "monitoring"))
        evicted = controller.try_admit(make_ticket(0, "interactive"))
        assert [t.id for t in evicted] == [3]  # last in, not max id

    def test_tie_break_survives_dequeue_and_refill(self):
        # Sequence bookkeeping must stay consistent after tickets leave
        # the queue through the execution path.
        controller = AdmissionController(max_pending=2, max_concurrent=2,
                                         shed_policy="lifo")
        controller.try_admit(make_ticket(7))
        controller.try_admit(make_ticket(8))
        first = controller.next_ticket()
        assert first.id == 7
        controller.try_admit(make_ticket(3))   # queue: 8 then 3
        evicted = controller.try_admit(make_ticket(100))
        assert [t.id for t in evicted] == [3]


class TestDraining:
    def test_stop_admitting_sheds_everything_new(self):
        controller = AdmissionController()
        controller.try_admit(make_ticket(0))
        controller.stop_admitting()
        with pytest.raises(QueryRejectedError) as exc_info:
            controller.try_admit(make_ticket(1))
        assert exc_info.value.reason == "draining"
        # What was already queued stays available for the drain loop.
        assert controller.pending_count() == 1

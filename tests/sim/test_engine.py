"""Unit tests for the discrete-event engine."""

import pytest

from repro.errors import ClockError, DeadlockError
from repro.sim import Engine, PRIORITY_LATE, PRIORITY_NORMAL, PRIORITY_TIMER, SimProcess, Timeout


def test_clock_starts_at_zero():
    eng = Engine()
    assert eng.now == 0.0


def test_clock_custom_start():
    eng = Engine(start_time=5.0)
    assert eng.now == 5.0


def test_schedule_and_run_order():
    eng = Engine()
    order = []
    eng.schedule(2.0, order.append, "b")
    eng.schedule(1.0, order.append, "a")
    eng.schedule(3.0, order.append, "c")
    eng.run()
    assert order == ["a", "b", "c"]
    assert eng.now == 3.0


def test_same_time_priority_ordering():
    eng = Engine()
    order = []
    eng.schedule(1.0, order.append, "normal", priority=PRIORITY_NORMAL)
    eng.schedule(1.0, order.append, "timer", priority=PRIORITY_TIMER)
    eng.schedule(1.0, order.append, "late", priority=PRIORITY_LATE)
    eng.run()
    assert order == ["timer", "normal", "late"]


def test_same_time_same_priority_fifo():
    eng = Engine()
    order = []
    for i in range(10):
        eng.schedule(1.0, order.append, i)
    eng.run()
    assert order == list(range(10))


def test_schedule_in_past_raises():
    eng = Engine()
    eng.schedule(1.0, lambda: None)
    eng.run()
    with pytest.raises(ClockError):
        eng.schedule_at(0.5, lambda: None)


def test_cancelled_event_does_not_fire():
    eng = Engine()
    fired = []
    ev = eng.schedule(1.0, fired.append, "x")
    ev.cancel()
    eng.run()
    assert fired == []


def test_run_until_stops_before_later_events():
    eng = Engine()
    fired = []
    eng.schedule(1.0, fired.append, "early")
    eng.schedule(10.0, fired.append, "late")
    eng.run(until=5.0)
    assert fired == ["early"]
    assert eng.now == 5.0  # clock advanced to `until`
    eng.run()
    assert fired == ["early", "late"]


def test_run_until_advances_clock_even_with_empty_queue():
    eng = Engine()
    eng.run(until=7.5)
    assert eng.now == 7.5


def test_events_scheduled_during_run_fire():
    eng = Engine()
    order = []

    def outer():
        order.append("outer")
        eng.schedule(1.0, order.append, "inner")

    eng.schedule(1.0, outer)
    eng.run()
    assert order == ["outer", "inner"]
    assert eng.now == 2.0


def test_step_returns_false_on_empty_queue():
    eng = Engine()
    assert eng.step() is False
    eng.schedule(1.0, lambda: None)
    assert eng.step() is True
    assert eng.step() is False


def test_pending_events_counts_only_live():
    eng = Engine()
    ev1 = eng.schedule(1.0, lambda: None)
    eng.schedule(2.0, lambda: None)
    assert eng.pending_events() == 2
    ev1.cancel()
    assert eng.pending_events() == 1


def test_step_skips_cancelled():
    eng = Engine()
    ev = eng.schedule(1.0, lambda: None)
    eng.schedule(2.0, lambda: None)
    ev.cancel()
    assert eng.step() is True
    assert eng.now == 2.0


def test_deadlock_detection():
    eng = Engine()

    def body():
        from repro.sim import Future
        yield Future(eng, label="never")

    SimProcess(eng, body(), name="stuck")
    with pytest.raises(DeadlockError):
        eng.run(detect_deadlock=True)


def test_no_deadlock_when_processes_finish():
    eng = Engine()

    def body():
        yield Timeout(1.0)

    SimProcess(eng, body(), name="ok")
    eng.run(detect_deadlock=True)  # should not raise


def test_stop_returns_midrun_and_preserves_queue():
    eng = Engine()
    fired = []
    eng.schedule(1.0, lambda: fired.append(1))
    eng.schedule(2.0, lambda: (fired.append(2), eng.stop()))
    eng.schedule(3.0, lambda: fired.append(3))
    eng.run(until=10.0)
    assert fired == [1, 2]
    assert eng.stopped
    assert eng.now == 2.0           # no fast-forward to `until` on stop
    assert eng.pending_events() == 1
    eng.run()                        # resumes from the stopped instant
    assert fired == [1, 2, 3]
    assert not eng.stopped


def test_stop_flag_resets_on_next_run():
    eng = Engine()
    eng.schedule(1.0, eng.stop)
    eng.run()
    assert eng.stopped
    eng.schedule(1.0, lambda: None)
    eng.run(until=5.0)
    assert not eng.stopped
    assert eng.now == 5.0


def test_position_is_the_key_of_the_dispatching_event():
    eng = Engine()
    seen = []
    eng.schedule(1.0, lambda: seen.append(eng.position))
    eng.schedule(1.0, lambda: seen.append(eng.position),
                 priority=PRIORITY_TIMER)
    assert eng.position < (0.0, PRIORITY_TIMER, 0)   # nothing fired yet
    eng.run()
    assert seen == [(1.0, PRIORITY_TIMER, 1), (1.0, PRIORITY_NORMAL, 0)]
    assert eng.position == (1.0, PRIORITY_NORMAL, 0)  # drained: last event


def test_position_after_run_until_covers_the_whole_instant():
    eng = Engine()
    eng.schedule(2.0, lambda: None)
    eng.run(until=1.5)
    assert eng.position == (1.5, float("inf"), float("inf"))
    assert (1.5, PRIORITY_LATE, 10 ** 9) < eng.position < (2.0, 0, 0)
    eng.schedule_at(1.7, eng.stop)
    eng.run(until=3.0)                   # stopped: the stopping event
    assert eng.position[:2] == (1.7, PRIORITY_NORMAL)


def test_reserve_seq_orders_like_a_scheduled_event():
    eng = Engine()
    order = []
    append = order.append        # one callable, so the batch could join
    eng.schedule_coalesced(1.0, append, "a")
    seq = eng.reserve_seq(1.0)
    # the reservation sealed the open batch: "b" sorts after it
    eng.schedule_coalesced(1.0, append, "b")
    marks = []
    eng.schedule_at(1.0, lambda: marks.append(
        (1.0, PRIORITY_NORMAL, seq) < eng.position))
    eng.run()
    assert order == ["a", "b"]
    assert eng.stats()["dispatched"] == 3   # two batches and the marker
    assert marks == [True]
    with pytest.raises(ClockError):
        eng.reserve_seq(0.5)


def test_schedule_reserved_fires_where_its_reservation_sorts():
    eng = Engine()
    order = []
    eng.schedule_at(1.0, order.append, "before")
    seq = eng.reserve_seq(1.0)
    eng.schedule_at(1.0, order.append, "after")
    eng.schedule_at(0.5, order.append, "earlier")
    ev = eng.schedule_reserved(1.0, seq, order.append, "reserved")
    assert ev.sort_key() == (1.0, PRIORITY_NORMAL, seq)
    eng.run()
    assert order == ["earlier", "before", "reserved", "after"]
    with pytest.raises(ClockError):
        eng.schedule_reserved(0.5, eng.reserve_seq(1.0), order.append, "x")


def test_horizon_skips_a_cancelled_head():
    eng = Engine()
    seen = []
    eng.schedule_at(1.0, lambda: seen.append(eng.horizon()))
    eng.schedule_at(2.0, lambda: None).cancel()
    late = eng.schedule_at(3.0, lambda: None)
    eng.run()
    assert seen == [late.sort_key()]


def test_horizon_is_bounded_by_until():
    eng = Engine()
    seen = []
    eng.schedule_at(1.0, lambda: seen.append(eng.horizon()))
    eng.schedule_at(3.0, lambda: seen.append(eng.horizon()))
    eng.run(until=2.5)
    assert seen == [(2.5, float("inf"), float("inf"))]
    eng.run()                            # unbounded: nothing left after
    assert seen[1] == (float("inf"),) * 3


def test_horizon_equals_position_after_stop():
    eng = Engine()
    seen = []

    def stop_and_look():
        eng.stop()
        seen.append((eng.horizon(), eng.position))

    eng.schedule_at(1.0, stop_and_look)
    eng.schedule_at(2.0, lambda: None)
    eng.run()
    (horizon, position), = seen
    assert horizon == position == (1.0, PRIORITY_NORMAL, 0)


def test_enter_moves_forward_and_refuses_to_move_back():
    eng = Engine()
    seen = []

    def walk():
        seq = eng.reserve_seq(2.5)
        with pytest.raises(ClockError):
            eng.enter((1.0, PRIORITY_NORMAL, seq))
        with pytest.raises(ClockError):      # same instant, earlier key
            eng.enter((2.0, PRIORITY_TIMER, seq))
        eng.enter(eng.position)              # staying put is allowed
        eng.enter((2.5, PRIORITY_NORMAL, seq))
        seen.append((eng.now, eng.position))

    eng.schedule_at(2.0, walk)
    eng.run()
    assert seen == [(2.5, (2.5, PRIORITY_NORMAL, 1))]

"""Engine edge cases: cancelled-event heap hygiene, same-instant
ordering, past scheduling, and deadlock detection with live processes."""

import pytest

from repro.errors import ClockError, DeadlockError
from repro.sim import (
    Engine,
    Future,
    IntervalTimer,
    PRIORITY_NORMAL,
    PRIORITY_TIMER,
    SimProcess,
    Timeout,
)


# -- cancelled-event heap hygiene ---------------------------------------------

def test_cancel_is_o1_and_counted_exactly():
    eng = Engine()
    events = [eng.schedule(1.0, int) for _ in range(10)]
    assert eng.pending_events() == 10
    for ev in events[:4]:
        ev.cancel()
    assert eng.pending_events() == 6
    # double-cancel must not double-count
    events[0].cancel()
    assert eng.pending_events() == 6


def test_cancel_after_firing_does_not_corrupt_count():
    eng = Engine()
    fired = []
    ev = eng.schedule(1.0, fired.append, "x")
    eng.schedule(2.0, fired.append, "y")
    eng.step()
    assert fired == ["x"]
    ev.cancel()  # too late: already fired, must be a no-op for the count
    assert eng.pending_events() == 1
    eng.run()
    assert fired == ["x", "y"]


def test_heap_compacts_when_cancelled_exceed_half():
    eng = Engine()
    fired = []
    for i in range(100):
        eng.schedule(float(i), fired.append, i)
    doomed = [eng.schedule(float(i) + 0.5, int) for i in range(110)]
    assert len(eng._heap) == 210
    for ev in doomed:
        ev.cancel()
    # once cancelled entries outnumbered live ones the heap was compacted
    # in place (not all 110 corpses can still be queued)
    assert len(eng._heap) < 150
    assert len(eng._heap) - eng._n_cancelled == 100
    assert eng.pending_events() == 100
    eng.run()
    assert fired == list(range(100))


def test_no_compaction_below_min_heap_size():
    """Tiny heaps are not worth compacting; counters must still be exact."""
    eng = Engine()
    events = [eng.schedule(1.0, int) for _ in range(10)]
    for ev in events:
        ev.cancel()
    assert eng.pending_events() == 0
    assert eng.step() is False


def test_compaction_during_run_keeps_heap_alias_valid():
    """run() holds a local alias of the heap; a callback that cancels
    enough events to trigger compaction must not strand the loop on a
    stale list object."""
    eng = Engine()
    fired = []
    doomed = [eng.schedule(2.0 + i * 1e-6, int) for i in range(200)]

    def massacre():
        fired.append("massacre")
        for ev in doomed:
            ev.cancel()

    eng.schedule(1.0, massacre)
    eng.schedule(3.0, fired.append, "survivor")
    eng.run()
    assert fired == ["massacre", "survivor"]
    assert eng.pending_events() == 0


def test_cancelled_events_do_not_advance_clock():
    eng = Engine()
    ev = eng.schedule(1.0, int)
    eng.schedule(5.0, int)
    ev.cancel()
    eng.run()
    assert eng.now == 5.0


# -- dispatch/cancel/compaction statistics ------------------------------------

def test_stats_counts_dispatch_cancel_and_compaction():
    eng = Engine()
    for i in range(100):
        eng.schedule(float(i), int)
    doomed = [eng.schedule(float(i) + 0.5, int) for i in range(110)]
    for ev in doomed:
        ev.cancel()
    eng.run()
    stats = eng.stats()
    assert stats["dispatched"] == 100
    assert stats["cancelled"] == 110
    assert stats["compactions"] >= 1
    assert stats["pending"] == 0


def test_stats_accumulate_across_stop_and_resume():
    """The fault driver stops and resumes one engine per life; counters
    must span the whole engine lifetime, not reset at stop()."""
    eng = Engine()
    eng.schedule(1.0, eng.stop)
    eng.schedule(2.0, int)
    eng.run()
    first = eng.stats()["dispatched"]
    assert first == 1
    eng.run()
    assert eng.stats()["dispatched"] == 2


def test_step_counts_toward_dispatched():
    eng = Engine()
    eng.schedule(1.0, int)
    eng.schedule(2.0, int)
    assert eng.step() is True
    assert eng.stats()["dispatched"] == 1
    eng.run()
    assert eng.stats()["dispatched"] == 2


def test_publish_metrics_exports_engine_gauges():
    from repro.obs import MetricsRegistry
    from repro.obs.publish import publish_run

    eng = Engine()
    eng.schedule(1.0, int)
    ev = eng.schedule(2.0, int)
    ev.cancel()
    eng.run()
    reg = MetricsRegistry()
    publish_run(reg, engine=eng)
    snap = reg.snapshot()
    assert snap["sim.engine.dispatched"]["value"] == 1
    assert snap["sim.engine.cancelled"]["value"] == 1
    assert snap["sim.engine.pending"]["value"] == 0


# -- same-instant ordering -----------------------------------------------------

def test_timer_beats_wakeup_at_same_instant():
    """The paper's alarm-vs-resume race: a timeslice alarm expiring at
    the exact instant a process resumes must run first, so pages written
    before the boundary land in the finished slice."""
    eng = Engine()
    order = []

    def body():
        yield Timeout(1.0)
        order.append("process-resumed")

    SimProcess(eng, body(), name="app")
    IntervalTimer(eng, 1.0, lambda i: order.append(f"alarm-{i}"))
    eng.run(until=1.0)
    assert order == ["alarm-0", "process-resumed"]


def test_future_wakeup_ordering_with_timer_at_same_instant():
    eng = Engine()
    order = []
    fut = Future(eng, label="gate")

    def body():
        yield fut
        order.append("woken")

    SimProcess(eng, body(), name="waiter")
    eng.schedule(1.0, fut.resolve, None, priority=PRIORITY_NORMAL)
    IntervalTimer(eng, 1.0, lambda i: order.append("alarm"))
    eng.run(until=1.5)
    assert order == ["alarm", "woken"]


def test_equal_priority_same_instant_is_fifo():
    eng = Engine()
    order = []
    for i in range(20):
        eng.schedule(1.0, order.append, i,
                     priority=PRIORITY_TIMER if i % 2 else PRIORITY_TIMER)
    eng.run()
    assert order == list(range(20))


# -- past scheduling ----------------------------------------------------------

def test_schedule_at_past_raises_clock_error():
    eng = Engine(start_time=10.0)
    with pytest.raises(ClockError):
        eng.schedule_at(9.999999, int)


def test_schedule_negative_delay_raises_clock_error():
    eng = Engine()
    eng.schedule(1.0, int)
    eng.run()
    with pytest.raises(ClockError):
        eng.schedule(-0.5, int)


def test_schedule_at_exactly_now_is_allowed():
    eng = Engine(start_time=3.0)
    fired = []
    eng.schedule_at(3.0, fired.append, "now")
    eng.run()
    assert fired == ["now"]
    assert eng.now == 3.0


# -- deadlock detection --------------------------------------------------------

def test_deadlock_reports_live_process_count():
    eng = Engine()

    def stuck():
        yield Future(eng, label="never")

    SimProcess(eng, stuck(), name="a")
    SimProcess(eng, stuck(), name="b")
    with pytest.raises(DeadlockError, match="2 process"):
        eng.run(detect_deadlock=True)


def test_killed_process_is_not_a_deadlock():
    eng = Engine()

    def stuck():
        yield Future(eng, label="never")

    proc = SimProcess(eng, stuck(), name="victim")
    eng.schedule(1.0, proc.kill)
    eng.run(detect_deadlock=True)  # must not raise
    assert not proc.alive


def test_deadlock_not_raised_when_events_remain_past_until():
    """run(until=...) leaving events queued is not a drained queue."""
    eng = Engine()

    def body():
        yield Timeout(10.0)

    SimProcess(eng, body(), name="sleeper")
    eng.run(until=1.0, detect_deadlock=True)  # wakeup still queued
    eng.run(detect_deadlock=True)             # finishes cleanly

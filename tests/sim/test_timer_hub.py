"""Unit tests for the coalescing TimerHub.

The hub replaces one queued engine event per timer expiry with one per
``(interval, phase)`` group per epoch; these tests pin the grouping,
the enrollment-order sweep, mid-epoch cancellation/reset semantics, and
the epoch-listener seam against the per-timer reference
(:class:`tests.sim.reference.ReferenceEngine`, one event per expiry).
"""

import pytest

from repro.sim import Engine, IntervalTimer
from repro.sim.timers import TimerHub
from tests.sim.reference import PerTimerHub, ReferenceEngine

#: the batched engine and the per-timer reference, keyed for reporting
ENGINES = {"hub": Engine, "per-timer": ReferenceEngine}


def _record(log, name):
    return lambda i, _n=name: log.append((_n, i))


def test_cophased_timers_share_one_engine_event_per_epoch():
    eng = Engine()
    log = []
    for n in range(8):
        IntervalTimer(eng, 1.0, _record(log, f"t{n}"))
    base = eng.stats()["dispatched"]
    eng.run(until=3.5)
    # 3 epochs, one dispatched event each -- not 24
    assert eng.stats()["dispatched"] - base == 3
    hub = eng.timer_hub
    assert hub.stats() == {"epochs": 3, "expiries_swept": 24, "max_group": 8}
    # sweep order is enrollment order, every epoch
    assert log == [(f"t{n}", i) for i in range(3) for n in range(8)]


def test_sweep_order_matches_per_timer_path():
    runs = {}
    for kind, engine_cls in ENGINES.items():
        eng = engine_cls()
        log = []
        for n in range(5):
            IntervalTimer(eng, 2.0, lambda i, _n=n: log.append(
                (eng.now, _n, i)))
        eng.run(until=9.0)
        runs[kind] = (log, eng.stats()["dispatched"])
    assert runs["hub"][0] == runs["per-timer"][0]
    # 4 epochs of 5 timers: one event per epoch against one per expiry
    assert (runs["hub"][1], runs["per-timer"][1]) == (4, 20)


def test_heterogeneous_intervals_and_phases_group_separately():
    eng = Engine()
    log = []
    IntervalTimer(eng, 1.0, _record(log, "a"))
    IntervalTimer(eng, 1.0, _record(log, "b"), start_after=0.5)
    IntervalTimer(eng, 2.0, _record(log, "c"))
    eng.run(until=2.25)
    # at t=2.0 both a and c expire; c's group event was scheduled first
    # (at construction) so it wins the same-instant seq tie-break,
    # exactly as per-timer events would
    assert log == [("b", 0), ("a", 0), ("b", 1), ("c", 0), ("a", 1)]
    # a and c meet at t=2.0 but keep distinct (interval, phase) groups
    assert eng.timer_hub.stats()["max_group"] == 1


def test_cancel_mid_epoch_skips_co_grouped_member():
    """A handler cancelling a later member of its own group must
    suppress that member's expiry this epoch, exactly as cancelling its
    own per-timer event does."""
    for kind, engine_cls in ENGINES.items():
        eng = engine_cls()
        log = []
        timers = []
        def killer(i):
            log.append(("killer", i))
            if i == 1:
                timers[1].cancel()
        timers.append(IntervalTimer(eng, 1.0, killer))
        timers.append(IntervalTimer(eng, 1.0, _record(log, "victim")))
        eng.run(until=3.5)
        assert log == [("killer", 0), ("victim", 0),
                       ("killer", 1), ("killer", 2)], kind


def test_reset_mid_epoch_moves_member_to_new_group():
    for kind, engine_cls in ENGINES.items():
        eng = engine_cls()
        log = []
        timers = []
        def shifter(i):
            log.append((eng.now, "shifter", i))
            if i == 0:
                timers[1].reset(2.0)
        timers.append(IntervalTimer(eng, 1.0, shifter))
        timers.append(IntervalTimer(
            eng, 1.0, lambda i: log.append((eng.now, "shifted", i))))
        eng.run(until=3.5)
        # the shifted timer's t=3.0 event was scheduled at t=1.0, the
        # shifter's re-arm at t=2.0, so shifted wins the seq tie-break
        assert log == [(1.0, "shifter", 0), (2.0, "shifter", 1),
                       (3.0, "shifted", 0), (3.0, "shifter", 2)], kind


def test_empty_group_event_is_cancelled():
    eng = Engine()
    t = IntervalTimer(eng, 1.0, lambda i: pytest.fail("cancelled timer fired"))
    t.cancel()
    base = eng.stats()["dispatched"]
    eng.run(until=2.0)
    assert eng.stats()["dispatched"] == base
    assert not eng.timer_hub._groups


def test_hub_created_lazily_by_the_first_timer():
    eng = Engine()
    assert eng.timer_hub is None           # no timers yet
    IntervalTimer(eng, 1.0, lambda i: None)
    hub = eng.timer_hub
    assert isinstance(hub, TimerHub)
    IntervalTimer(eng, 2.0, lambda i: None)
    assert eng.timer_hub is hub            # one hub per engine
    # the reference engine's per-timer hub is the one its timers join
    ref = ReferenceEngine()
    IntervalTimer(ref, 1.0, lambda i: None)
    assert type(ref.timer_hub) is PerTimerHub

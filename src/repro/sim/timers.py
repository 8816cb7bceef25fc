"""Interval timers: the ``setitimer(ITIMER_REAL)`` model.

The paper's instrumentation library arms a periodic alarm; each expiry
(SIGALRM) records the incremental working set, resets the dirty counts and
re-protects the data memory.  :class:`IntervalTimer` reproduces that: a
periodic callback with a queryable *next expiry time*, which the
alarm-sliced compute phases use to stop exactly at timeslice boundaries.

At scale, per-rank expiries would dominate the event queue, so every
timer enrolls in its engine's :class:`TimerHub`: timers sharing an
``(interval, next expiry)`` group are swept by **one** queued engine
event per epoch, in enrollment order -- the order one event per expiry
would fire in.  That per-timer reference lives in
``tests/sim/reference.py``, and
``tests/instrument/test_coalesced_differential.py`` holds the hub to it.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.errors import SignalError
from repro.sim.engine import Engine, Event, PRIORITY_TIMER


class TimerHub:
    """Coalesces co-phased :class:`IntervalTimer` expiries.

    Timers are grouped by ``(interval, next_expiry)``.  A group owns one
    queued engine event; firing it sweeps the members in enrollment
    order, advancing and re-enrolling each *before* its handler runs --
    the exact operation order of one event per timer, so sequence-number
    ties resolve identically and the event stream is unchanged.

    Ordering note: members of one group re-arm contiguously, so a
    group's next event takes the sequence slot a per-timer event would
    have given its first member.  Timer populations whose arms
    *interleave* across different ``(interval, phase)`` groups would be
    swept group-by-group rather than in global arm order; no such
    population exists in this codebase (every tracker of a run shares
    the one checkpoint timeslice), and the sweep is deterministic either
    way.
    """

    __slots__ = ("engine", "_groups", "epochs", "expiries_swept",
                 "max_group")

    def __init__(self, engine: Engine):
        self.engine = engine
        #: (interval, next_time) -> _TimerGroup
        self._groups: dict[tuple[float, float], _TimerGroup] = {}
        # lifetime counters (surfaced by Engine.stats / the scale bench)
        self.epochs = 0
        self.expiries_swept = 0
        self.max_group = 0

    # -- membership --------------------------------------------------------

    def _enroll(self, timer: "IntervalTimer") -> None:
        key = (timer.interval, timer._next_time)
        group = self._groups.get(key)
        if group is None:
            group = _TimerGroup(key)
            self._groups[key] = group
            group.event = self.engine.schedule_at(
                timer._next_time, self._fire_group, group,
                priority=PRIORITY_TIMER)
        group.members.append(timer)
        group.live += 1
        timer._group = group

    def _withdraw(self, timer: "IntervalTimer") -> None:
        group = timer._group
        if group is None:
            return
        timer._group = None
        group.live -= 1
        if group.live == 0 and group.event is not None:
            group.event.cancel()
            group.event = None
            self._groups.pop(group.key, None)

    # -- firing ------------------------------------------------------------

    def _fire_group(self, group: "_TimerGroup") -> None:
        self._groups.pop(group.key, None)
        group.event = None
        self.epochs += 1
        members = group.members
        if len(members) > self.max_group:
            self.max_group = len(members)
        for timer in members:
            if timer._group is not group:
                continue                    # cancelled or reset mid-epoch
            timer._group = None
            self.expiries_swept += 1
            index = timer.expiries
            timer.expiries += 1
            timer._next_time += timer.interval
            self._enroll(timer)             # re-arm before the handler,
            timer.handler(index)            # as a per-timer event would
        group.members = ()
        group.live = 0

    def stats(self) -> dict:
        """Lifetime sweep counters (epochs fired, expiries swept, and
        the largest group observed)."""
        return {"epochs": self.epochs, "expiries_swept": self.expiries_swept,
                "max_group": self.max_group}


class _TimerGroup:
    """One coalesced expiry: the timers sharing an (interval, time) key."""

    __slots__ = ("key", "members", "live", "event")

    def __init__(self, key: tuple[float, float]):
        self.key = key
        self.members: list = []
        self.live = 0
        self.event: Optional[Event] = None


class IntervalTimer:
    """A periodic timer firing ``handler(expiry_index)`` every ``interval``.

    Expiries run at :data:`~repro.sim.engine.PRIORITY_TIMER`, i.e. before
    any process wake-up scheduled at the same instant -- matching the
    paper's requirement that the alarm samples the dirty pages written
    *before* the boundary.

    Expiries are delivered through the engine's shared
    :class:`TimerHub` (created by the engine's first timer), which
    fires them exactly where one queued event per expiry would.
    """

    def __init__(self, engine: Engine, interval: float,
                 handler: Callable[[int], Any], start_after: Optional[float] = None,
                 name: str = "itimer"):
        if interval <= 0:
            raise SignalError(f"timer interval must be positive, got {interval}")
        self.engine = engine
        self.interval = float(interval)
        self.handler = handler
        self.name = name
        self.expiries = 0
        self._armed = False
        self._group: Optional[_TimerGroup] = None
        if engine.timer_hub is None:
            engine.timer_hub = TimerHub(engine)
        self._next_time = engine.now + (self.interval if start_after is None
                                        else float(start_after))
        self._arm()

    def _arm(self) -> None:
        self._armed = True
        self.engine.timer_hub._enroll(self)

    @property
    def armed(self) -> bool:
        return self._armed

    def next_expiry(self) -> Optional[float]:
        """Absolute virtual time of the next expiry, or None if cancelled."""
        return self._next_time if self._armed else None

    def cancel(self) -> None:
        """Disarm the timer; pending expiry is dropped."""
        self._armed = False
        self.engine.timer_hub._withdraw(self)

    def reset(self, interval: Optional[float] = None) -> None:
        """Re-arm the timer, optionally with a new interval, starting now."""
        self.cancel()
        if interval is not None:
            if interval <= 0:
                raise SignalError(f"timer interval must be positive, got {interval}")
            self.interval = float(interval)
        self._next_time = self.engine.now + self.interval
        self._arm()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        nxt = self.next_expiry()
        return (f"<IntervalTimer {self.name!r} interval={self.interval} "
                f"next={nxt if nxt is None else format(nxt, '.6f')} "
                f"expiries={self.expiries}>")

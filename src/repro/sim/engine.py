"""The discrete-event engine: a virtual clock plus an ordered event queue.

Events are callbacks scheduled at absolute virtual times.  Ties are broken
first by an integer *priority* (lower fires first), then by insertion
sequence, which makes runs bit-for-bit deterministic.

Priorities matter for one subtle interaction reproduced from the paper:
when a checkpoint-timeslice alarm expires at the same instant an
application process resumes, the alarm handler must run *first* so the
pages written before the boundary are attributed to the finished
timeslice.  Timers therefore use :data:`PRIORITY_TIMER` (0) while process
wake-ups use :data:`PRIORITY_NORMAL` (10).

The queue is a binary heap of ``(time, priority, seq, event)`` tuples:
``seq`` is unique, so comparisons resolve inside the tuple and never call
back into Python-level ``Event`` ordering.  Cancelled events stay in the
heap (lazy deletion) but are counted exactly, and the heap is compacted
in place once cancelled entries outnumber live ones.

Components that settle their own bookkeeping lazily instead of queueing
one event per completion (the checkpoint transport's frames) use two
small pieces of public API: :meth:`Engine.reserve_seq` draws the
sequence number such an event would have had, and
:attr:`Engine.position` is the ``(time, priority, seq)`` key of the
event being dispatched.  A completion keyed below the position has
"already fired"; one keyed above it has not.

Components that dispatch a private stream of such keyed work themselves
(the checkpoint transport's frame stream) merge it into the global order
with three more: :meth:`Engine.schedule_reserved` queues one real event
at a reserved key, :meth:`Engine.horizon` is the key of the next event
the running loop would dispatch, and :meth:`Engine.enter` moves the
clock and position forward to a stream entry's key before it runs.  An
entry keyed between the position and the horizon runs exactly where its
own event would have fired.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional

from repro.errors import ClockError, DeadlockError
from repro.obs import NULL_OBS
from repro.obs.tracer import ENGINE_DISPATCH

#: Priority for timer expiries (alarm signals).  Fires before anything else
#: scheduled at the same instant.
PRIORITY_TIMER: int = 0

#: Default priority for process wake-ups and message deliveries.
PRIORITY_NORMAL: int = 10

#: Priority for bookkeeping that must observe everything else at an instant.
PRIORITY_LATE: int = 100

_INF = float("inf")
_UNBOUNDED = (_INF, _INF, _INF)

#: Compact the heap only past this size (tiny heaps are not worth it).
_COMPACT_MIN: int = 64


class Event:
    """A scheduled callback.

    Instances are created through :meth:`Engine.schedule` /
    :meth:`Engine.schedule_at`; cancel with :meth:`cancel`.
    """

    __slots__ = ("time", "priority", "seq", "fn", "args", "cancelled",
                 "_engine")

    def __init__(self, time: float, priority: int, seq: int,
                 fn: Callable[..., Any], args: tuple,
                 engine: "Optional[Engine]" = None):
        self.time = time
        self.priority = priority
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        #: owning engine while the event sits in its queue; cleared when
        #: the event is popped so late cancels don't corrupt the counters
        self._engine = engine

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call more than once."""
        if self.cancelled:
            return
        self.cancelled = True
        eng = self._engine
        if eng is not None:
            self._engine = None
            eng._note_cancel()

    def sort_key(self) -> tuple:
        """The (time, priority, sequence) ordering tuple."""
        return (self.time, self.priority, self.seq)

    def __lt__(self, other: "Event") -> bool:
        return self.sort_key() < other.sort_key()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.6f} prio={self.priority} {state} fn={getattr(self.fn, '__name__', self.fn)!r}>"


class Engine:
    """The simulation event loop.

    Typical use::

        eng = Engine()
        eng.schedule(1.0, lambda: print("one second"))
        eng.run(until=10.0)

    Processes (see :mod:`repro.sim.process`) are layered on top of bare
    events.
    """

    def __init__(self, start_time: float = 0.0, obs=None):
        self._now = float(start_time)
        #: the :class:`~repro.sim.timers.TimerHub` batching interval-timer
        #: expiries; created lazily by the first IntervalTimer
        self.timer_hub = None
        #: open coalesced batches: time -> (fn, priority, items, Event).
        #: Conservatively closed by ANY schedule_at at the same time, so a
        #: later join can never leapfrog an interleaved event (see
        #: schedule_coalesced's ordering note).
        self._open_batches: dict[float, tuple] = {}
        #: heap of (time, priority, seq, Event) -- C-level tuple ordering
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = itertools.count()
        #: key of the event being dispatched (the heap entry itself, so
        #: the hot loop pays one store); see :attr:`position`
        self._pos: tuple = (self._now, -_INF, -1)
        self._running = False
        self._stop_requested = False
        #: ``(until, inf, inf)`` of the run in progress; see :meth:`horizon`
        self._bound: tuple = _UNBOUNDED
        self._live_processes = 0  # maintained by SimProcess
        self._n_cancelled = 0     # cancelled entries still in the heap
        #: the observability sink every instrumented component reaches
        #: through its engine; NULL_OBS keeps all call sites one branch
        self.obs = NULL_OBS if obs is None else obs
        #: profiling hooks called with each Event after it fires
        self._event_hooks: list[Callable[[Event], None]] = []
        # a profiler on the obs bundle observes every engine built with
        # it -- including the fault driver's per-life engines
        profiler = self.obs.profiler
        if profiler is not None:
            profiler.attach(self)
        # lifetime stats (never reset by run(): the fault driver
        # resumes stopped runs and counts must span them)
        self._n_dispatched = 0
        self._n_cancelled_total = 0
        self._n_compactions = 0

    # -- clock -------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def position(self) -> tuple:
        """``(time, priority, seq)`` of the event being dispatched.

        Every event that sorts before this key has fired and none after
        it has.  Once ``run(until=T)`` returns without :meth:`stop`, the
        position is ``(T, inf, inf)``: everything up to and including
        ``T`` has fired."""
        return self._pos[:3]

    # -- scheduling ---------------------------------------------------------

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any,
                 priority: int = PRIORITY_NORMAL) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        return self.schedule_at(self._now + delay, fn, *args, priority=priority)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any,
                    priority: int = PRIORITY_NORMAL) -> Event:
        """Schedule ``fn(*args)`` at absolute virtual time ``time``."""
        if time < self._now:
            raise ClockError(
                f"cannot schedule event at t={time:.9f}, now is t={self._now:.9f}")
        if self._open_batches:
            # conservative closure: any event scheduled at this instant
            # seals an open coalesced batch, so later joins sort after it
            self._open_batches.pop(time, None)
        seq = next(self._seq)
        ev = Event(time, priority, seq, fn, args, engine=self)
        heapq.heappush(self._heap, (time, priority, seq, ev))
        return ev

    def reserve_seq(self, time: float) -> int:
        """Draw the sequence number an event at ``time`` would get,
        without queueing one.

        The reservation orders exactly like a scheduled event of that
        key: it seals an open coalesced batch at ``time`` the way
        :meth:`schedule_at` does, so work joining the instant later
        still sorts after it.  Callers compare ``(time, priority, seq)``
        against :attr:`position` to tell whether the phantom event has
        "fired"."""
        if time < self._now:
            raise ClockError(
                f"cannot reserve at t={time:.9f}, now is t={self._now:.9f}")
        if self._open_batches:
            self._open_batches.pop(time, None)
        return next(self._seq)

    def schedule_reserved(self, time: float, seq: int,
                          fn: Callable[..., Any], *args: Any) -> Event:
        """Queue ``fn(*args)`` at ``(time, PRIORITY_NORMAL, seq)``, a key
        whose ``seq`` was drawn earlier by :meth:`reserve_seq`.

        The event fires exactly where the reservation sorts.  Nothing
        else may be queued at the same key (each reservation is queued
        at most once), and open coalesced batches are left alone: the
        reservation sealed them when it was drawn."""
        if time < self._now:
            raise ClockError(
                f"cannot schedule event at t={time:.9f}, now is t={self._now:.9f}")
        ev = Event(time, PRIORITY_NORMAL, seq, fn, args, engine=self)
        heapq.heappush(self._heap, (time, PRIORITY_NORMAL, seq, ev))
        return ev

    def schedule_coalesced(self, time: float, fn: Callable[[Any], Any],
                           item: Any, priority: int = PRIORITY_NORMAL) -> Event:
        """Schedule ``fn(item)`` at ``time``, sharing one queued event with
        every other coalesced call for the same ``(time, fn, priority)``.

        The shared event drains its items in submission order, which is
        exactly the order separate per-item events would have fired in:
        items join a batch only while no other event has been scheduled at
        that instant in between (``schedule_at`` seals open batches), so the
        batch occupies its first item's place in the queue and the whole
        stream of callbacks is unchanged -- there are just fewer heap
        entries.  ``fn`` is compared by identity; callers must pass a stable
        callable (a module-level function or a bound method cached once),
        not a fresh bound method per call.

        The returned Event is the *shared* batch event.  Cancelling it
        cancels every joined item, so callers whose items can be withdrawn
        individually must guard in ``fn`` instead (the way
        :meth:`SimProcess._resume` ignores finished processes).
        """
        batch = self._open_batches.get(time)
        if (batch is not None and batch[0] is fn
                and batch[1] == priority and not batch[3].cancelled):
            batch[2].append(item)
            return batch[3]
        items = [item]
        ev = self.schedule_at(time, self._run_batch, fn, items,
                              priority=priority)
        self._open_batches[time] = (fn, priority, items, ev)
        return ev

    def _run_batch(self, fn: Callable[[Any], Any], items: list) -> None:
        """Drain one coalesced batch.  The batch unregisters itself before
        the first callback runs, so same-instant work scheduled *by* the
        batch opens a fresh event behind the running one (mirroring
        TimerHub._fire_group) instead of appending to a list already being
        drained."""
        batch = self._open_batches.get(self._now)
        if batch is not None and batch[2] is items:
            del self._open_batches[self._now]
        for item in items:
            fn(item)

    # -- cancellation bookkeeping ---------------------------------------------

    def _note_cancel(self) -> None:
        """One queued event was cancelled; compact once the dead outnumber
        the living (and the heap is big enough to care)."""
        self._n_cancelled += 1
        self._n_cancelled_total += 1
        heap = self._heap
        if (self._n_cancelled * 2 > len(heap)
                and len(heap) >= _COMPACT_MIN):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify, in place (``run`` holds
        an alias of the list, so the object identity must survive)."""
        live = [entry for entry in self._heap if not entry[3].cancelled]
        self._heap[:] = live
        heapq.heapify(self._heap)
        self._n_cancelled = 0
        self._n_compactions += 1

    # -- execution ----------------------------------------------------------

    def stop(self) -> None:
        """Ask a running :meth:`run` loop to return after the current
        event.  The queue is left intact, so a later ``run`` resumes from
        exactly the stopped instant -- the seam the fault-injection
        driver uses to regain control at the moment a failure fires."""
        self._stop_requested = True

    @property
    def stopped(self) -> bool:
        """True when the last :meth:`run` returned because of :meth:`stop`."""
        return self._stop_requested

    def horizon(self) -> tuple:
        """``(time, priority, seq)`` of the next event the running loop
        would dispatch after the current one.

        Cancelled heads are skipped; the key is capped at ``(until, inf,
        inf)`` of the :meth:`run` in progress, and once :meth:`stop` has
        been requested of a running loop it is the :attr:`position`
        itself (nothing more fires).  Under :meth:`step` it is the next
        queued event's key.  Work keyed strictly between the position
        and the horizon may run now, via :meth:`enter`, in exactly the
        order separate events would have fired it."""
        if self._stop_requested and self._running:
            return self._pos[:3]
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
            self._n_cancelled -= 1
        if heap and heap[0] < self._bound:
            return heap[0][:3]
        return self._bound

    def enter(self, key: tuple) -> None:
        """Move :attr:`now` and :attr:`position` to ``key``, a
        ``(time, priority, seq, ...)`` key at or after the position: the
        caller is about to run work keyed there (see :meth:`horizon`)."""
        time, pos = key[0], self._pos
        if time < pos[0] or (time == pos[0] and key[:3] < pos[:3]):
            raise ClockError(
                f"cannot enter {key[:3]!r} behind position {pos[:3]!r}")
        self._now = time
        self._pos = key

    def step(self) -> bool:
        """Fire the next event.  Returns False when the queue is empty."""
        heap = self._heap
        self._bound = _UNBOUNDED
        while heap:
            entry = heapq.heappop(heap)
            ev = entry[3]
            if ev.cancelled:
                self._n_cancelled -= 1
                continue
            ev._engine = None
            self._now = entry[0]
            self._pos = entry
            self._n_dispatched += 1
            ev.fn(*ev.args)
            if self._event_hooks:
                for hook in self._event_hooks:
                    hook(ev)
            return True
        return False

    def run(self, until: Optional[float] = None,
            detect_deadlock: bool = False) -> float:
        """Run events until the queue drains or ``until`` is reached.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the last event fired earlier.  With ``detect_deadlock``
        the engine raises :class:`~repro.errors.DeadlockError` if the
        queue drains while simulated processes are still blocked (e.g. an
        MPI receive whose matching send never happens).

        Returns the final virtual time.
        """
        # the hot loop: peek and pop are fused, the heap and heapq
        # functions are bound locally.  self._heap is only ever mutated in
        # place (push/pop/compact), so the alias stays valid across
        # callbacks that schedule or cancel.
        heap = self._heap
        heappop = heapq.heappop
        tracer = self.obs.tracer
        trace_dispatch = tracer.enabled and tracer.wants(ENGINE_DISPATCH)
        self._running = True
        self._stop_requested = False
        self._bound = _UNBOUNDED if until is None else (until, _INF, _INF)
        try:
            while heap:
                entry = heap[0]
                ev = entry[3]
                if ev.cancelled:
                    heappop(heap)
                    self._n_cancelled -= 1
                    continue
                if until is not None and entry[0] > until:
                    break
                heappop(heap)
                ev._engine = None
                self._now = entry[0]
                self._pos = entry
                self._n_dispatched += 1
                ev.fn(*ev.args)
                if trace_dispatch:
                    tracer.instant(
                        getattr(ev.fn, "__qualname__",
                                getattr(ev.fn, "__name__", "event")),
                        ENGINE_DISPATCH, entry[0], track="engine",
                        priority=entry[1])
                if self._event_hooks:
                    for hook in self._event_hooks:
                        hook(ev)
                if self._stop_requested:
                    break
        finally:
            self._running = False
        if (until is not None and not self._stop_requested
                and self._now <= until):
            self._now = until
            self._pos = (until, _INF, _INF)
        if detect_deadlock and not self._heap and self._live_processes > 0:
            raise DeadlockError(
                f"event queue drained with {self._live_processes} process(es) still blocked")
        return self._now

    def pending_events(self) -> int:
        """Number of non-cancelled events still queued (O(1))."""
        return len(self._heap) - self._n_cancelled

    # -- observability ------------------------------------------------------

    def add_event_hook(self, hook: Callable[[Event], None]) -> None:
        """Register a profiling hook called with every fired event.  The
        hot loop pays one truthiness check when no hooks are registered."""
        self._event_hooks.append(hook)

    def stats(self) -> dict:
        """Lifetime counters of this engine: events dispatched, events
        cancelled, heap compactions, and the live pending count.

        Counters accumulate across :meth:`run` calls -- including the
        ``stop()``/resume seam the fault driver uses -- so one logical
        run reports exact totals however many times its clock was
        paused.
        """
        return {
            "dispatched": self._n_dispatched,
            "cancelled": self._n_cancelled_total,
            "compactions": self._n_compactions,
            "pending": self.pending_events(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Engine now={self._now:.6f} pending={self.pending_events()}>"

"""Deterministic discrete-event simulation engine.

This substrate underpins the whole reproduction: simulated cluster nodes,
MPI ranks, NIC transfers, disks, and the instrumentation library's alarm
all run on one event loop with a single virtual clock.

Public surface:

- :class:`~repro.sim.engine.Engine` -- the event loop and virtual clock.
- :class:`~repro.sim.process.SimProcess` -- generator-based processes.
- :class:`~repro.sim.process.Timeout`, :class:`~repro.sim.process.Future`
  -- the two blocking primitives a process can ``yield``.
- :class:`~repro.sim.timers.IntervalTimer` -- periodic timers (the
  ``setitimer`` model used for checkpoint timeslices).
- :class:`~repro.sim.random.RngStreams` -- named, reproducible RNG streams.

Determinism: events fire in ``(time, priority, sequence)`` order, and all
randomness flows from named streams derived from a single seed, so every
experiment is exactly reproducible.
"""

from repro.sim.engine import Engine, Event, PRIORITY_TIMER, PRIORITY_NORMAL, PRIORITY_LATE
from repro.sim.process import Future, SimProcess, Timeout
from repro.sim.random import RngStreams
from repro.sim.timers import IntervalTimer, TimerHub

__all__ = [
    "Engine",
    "Event",
    "Future",
    "IntervalTimer",
    "TimerHub",
    "PRIORITY_LATE",
    "PRIORITY_NORMAL",
    "PRIORITY_TIMER",
    "RngStreams",
    "SimProcess",
    "Timeout",
]

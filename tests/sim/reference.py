"""A per-item reference engine for the batched-dispatch differentials.

The production :class:`~repro.sim.Engine` dispatches same-instant work in
batches: co-phased interval timers share one event per epoch
(:class:`~repro.sim.timers.TimerHub`), and same-instant wakes and
same-arrival deliveries share one event each
(:meth:`~repro.sim.Engine.schedule_coalesced`).  The engines here undo
that batching -- one queued event per item, at the key the item's own
event would have had -- so a differential can hold the batched path to
the per-item simulation it must reproduce exactly.

Inject :class:`ReferenceEngine` into :func:`repro.cluster.experiment.run_experiment`
with :func:`run_reference`.
"""

from __future__ import annotations

import repro.cluster.experiment
from repro.sim import Engine
from repro.sim.engine import PRIORITY_NORMAL, PRIORITY_TIMER
from repro.sim.timers import TimerHub, _TimerGroup


class PerItemEngine(Engine):
    """An engine whose coalesced calls each queue their own event."""

    def schedule_coalesced(self, time, fn, item, priority=PRIORITY_NORMAL):
        return self.schedule_at(time, fn, item, priority=priority)


class PerTimerHub(TimerHub):
    """A hub that gives every timer a one-member group and its own event
    per expiry.  Groups are not registered by key, so co-phased timers
    never share one."""

    def _enroll(self, timer):
        group = _TimerGroup((timer.interval, timer._next_time))
        group.event = self.engine.schedule_at(
            timer._next_time, self._fire_group, group,
            priority=PRIORITY_TIMER)
        group.members.append(timer)
        group.live = 1
        timer._group = group


class ReferenceEngine(PerItemEngine):
    """Per-item wakes, deliveries and timer expiries."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.timer_hub = PerTimerHub(self)


def run_reference(monkeypatch, config, obs=None):
    """:func:`run_experiment` on a :class:`ReferenceEngine`."""
    with monkeypatch.context() as patch:
        patch.setattr(repro.cluster.experiment, "Engine", ReferenceEngine)
        return repro.cluster.experiment.run_experiment(config, obs=obs)

"""Uncoordinated checkpointing and the domino effect.

The paper exploits bulk-synchrony to take *coordinated* checkpoints (all
ranks at the same timeslice boundary), so a failure loses at most one
interval.  The classic alternative -- every rank checkpoints on its own
schedule -- needs no coordination but risks cascading rollbacks: if a
message was sent after its sender's recovery point but received before
its receiver's, the receiver's state depends on unreproducible history
(an *orphan* message) and the receiver must roll back further, possibly
cascading all the way to the start (Elnozahy et al.'s survey, the
paper's reference [10]).

This module makes that trade-off measurable:

- :class:`MessageLogger` records every delivery (sender, receiver, send
  and receive times) from the live run;
- :class:`UncoordinatedSchedule` gives each rank an independent,
  staggered checkpoint clock;
- :func:`recovery_line` computes the consistent recovery line for a
  failure at time ``T``: start from every rank's latest checkpoint and
  iteratively roll receivers of orphan messages back to earlier
  checkpoints until no orphans remain (a monotone fixpoint).

The ablation bench compares the work lost under coordinated versus
uncoordinated schedules on the same workload and message log.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Optional

from repro.errors import CheckpointError
from repro.mpi import MPIJob, RankContext


@dataclass(frozen=True)
class LoggedMessage:
    """One delivered application message."""

    src: int
    dst: int
    send_time: float
    recv_time: float
    size: int


class MessageLogger:
    """Records every application-level delivery of a job."""

    def __init__(self, job: MPIJob):
        self.messages: list[LoggedMessage] = []
        job.init_hooks.append(self._attach)
        self._attached: set[int] = set()

    def _attach(self, ctx: RankContext) -> None:
        if ctx.rank in self._attached:
            return
        self._attached.add(ctx.rank)
        engine = ctx.engine

        def record(msg, dst=ctx.rank):
            self.messages.append(LoggedMessage(
                src=msg.src, dst=dst, send_time=msg.send_time,
                recv_time=engine.now, size=msg.size))

        ctx.comm.receive_listeners.append(record)


class UncoordinatedSchedule:
    """Independent per-rank checkpoint instants.

    ``stagger_fraction`` offsets each rank's clock by
    ``rank / nranks * interval`` -- the natural drift of uncoordinated
    checkpointing (0.0 degenerates to a coordinated schedule).
    """

    def __init__(self, nranks: int, interval: float, horizon: float,
                 stagger_fraction: float = 1.0, start: float = 0.0):
        if nranks < 1 or interval <= 0 or horizon <= start:
            raise CheckpointError("bad uncoordinated-schedule parameters")
        if not (0.0 <= stagger_fraction <= 1.0):
            raise CheckpointError("stagger fraction must be in [0, 1]")
        self.nranks = nranks
        self.interval = interval
        #: per-rank sorted checkpoint times; time 0 (the initial state)
        #: is always recoverable
        self.times: list[list[float]] = []
        for rank in range(nranks):
            offset = stagger_fraction * (rank / nranks) * interval
            ts = [start]
            t = start + offset
            if t == start:
                t += interval
            while t <= horizon:
                ts.append(t)
                t += interval
            self.times.append(ts)

    def latest_at_or_before(self, rank: int, t: float) -> float:
        """The rank's newest checkpoint taken at or before ``t``."""
        ts = self.times[rank]
        i = bisect.bisect_right(ts, t) - 1
        if i < 0:
            raise CheckpointError(
                f"rank {rank} has no checkpoint at or before t={t}")
        return ts[i]

    def latest_strictly_before(self, rank: int, t: float) -> float:
        """The rank's newest checkpoint strictly before ``t``."""
        ts = self.times[rank]
        i = bisect.bisect_left(ts, t) - 1
        if i < 0:
            raise CheckpointError(
                f"rank {rank} has no checkpoint strictly before t={t}")
        return ts[i]


def recovery_line(schedule: UncoordinatedSchedule,
                  messages: list[LoggedMessage],
                  failure_time: float) -> list[float]:
    """The consistent recovery line for a failure at ``failure_time``.

    Returns each rank's rollback time.  Fixpoint iteration: while some
    message was sent after its sender's line but received before its
    receiver's (an orphan), roll the receiver back before the receive.
    Terminates because lines only ever move to strictly earlier
    checkpoints and time 0 is always consistent (no messages precede it).
    """
    line = [schedule.latest_at_or_before(r, failure_time)
            for r in range(schedule.nranks)]
    relevant = [m for m in messages if m.recv_time <= failure_time]
    changed = True
    while changed:
        changed = False
        for m in relevant:
            if m.send_time > line[m.src] and m.recv_time <= line[m.dst]:
                line[m.dst] = schedule.latest_strictly_before(
                    m.dst, m.recv_time)
                changed = True
    return line


def lost_work(line: list[float], failure_time: float) -> float:
    """Total work discarded across ranks (rank-seconds)."""
    return sum(failure_time - t for t in line)


def in_flight_at(messages: list[LoggedMessage], t: float) -> list[LoggedMessage]:
    """Messages crossing the instant ``t`` (sent before, delivered after).

    A coordinated checkpoint taken at ``t`` must log or drain these to be
    fully consistent; for the paper's bulk-synchronous codes, boundaries
    between bursts have (near-)empty channels -- the quantitative backing
    for taking coordinated checkpoints there.
    """
    return [m for m in messages if m.send_time < t < m.recv_time]

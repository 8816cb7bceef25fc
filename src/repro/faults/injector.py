"""Delivering scheduled faults into a live simulated job.

The :class:`FaultInjector` turns a :class:`~repro.faults.plan.FaultPlan`
into engine events and, when one fires, breaks the right component:

- ``CRASH``  -- kill the rank's process and detach its NIC
  (:meth:`~repro.mpi.MPIJob.fail_rank`);
- ``NIC``    -- fail the NIC (:meth:`~repro.net.NIC.fail`); the node is
  unreachable, so the runtime's failure detector treats it as a node
  loss and the injector kills the now-isolated rank too;
- ``DISK``   -- inject media failures into the rank's checkpoint sink
  (:meth:`~repro.storage.Disk.fail_next_writes`); transient.
- ``FLIP`` / ``TRUNCATE`` / ``DROP`` -- silently corrupt one stored
  checkpoint piece (:meth:`~repro.storage.CheckpointStore.flip_bits` /
  ``truncate_piece`` / ``drop_piece``).  Needs a ``store``; delivery
  targets the event's ``seq`` or, when unset, the victim rank's newest
  stored piece.  A corruption fault with nothing to corrupt (empty
  chain, payload-free piece) is recorded as skipped -- corruption of
  data that does not exist is provably harmless.

Fault events fire at :data:`~repro.sim.engine.PRIORITY_LATE` so all
ordinary activity at the same instant completes first -- delivery is
deterministic with respect to the application's own events.

After a *fatal* fault the injector calls :meth:`~repro.sim.Engine.stop`
(if ``stop_on_fatal``), handing control back to the recovery driver at
exactly the failure instant.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import FaultPlanError
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.mpi import MPIJob
from repro.sim.engine import PRIORITY_LATE


class FaultInjector:
    """Schedules one plan's events onto one job's engine."""

    def __init__(self, job: MPIJob, plan: FaultPlan, *,
                 disk_resolver: Optional[Callable[[int], object]] = None,
                 store: Optional[object] = None,
                 stop_on_fatal: bool = True,
                 on_fault: Optional[Callable[[FaultEvent], None]] = None):
        plan.validate_for(job.nranks)
        self.job = job
        self.engine = job.engine
        self.plan = plan
        #: maps a rank to its checkpoint storage sink (DISK faults);
        #: typically ``CheckpointEngine.disk``
        self.disk_resolver = disk_resolver
        #: the :class:`~repro.storage.CheckpointStore` corruption faults
        #: mangle; typically ``CheckpointEngine.store``
        self.store = store
        self.stop_on_fatal = stop_on_fatal
        self.on_fault = on_fault
        #: events actually delivered, in delivery order
        self.delivered: list[FaultEvent] = []
        #: events that could not be scheduled (already in the past) or
        #: had nothing to act on (corruption with no stored piece)
        self.skipped: list[FaultEvent] = []
        #: corruption events delivered, as ``(event, rank, seq)`` --
        #: seq resolved at delivery time
        self.corrupted: list[tuple[FaultEvent, int, int]] = []
        #: ranks lost to fatal faults delivered by this injector
        self.dead_ranks: list[int] = []
        self._armed = False
        self._events: list = []

    def arm(self) -> int:
        """Schedule every deliverable event; returns how many were armed.

        Events at or before the engine's current time cannot fire (the
        node was down then, or the plan predates this life) and are
        recorded in :attr:`skipped`.
        """
        if self._armed:
            raise FaultPlanError("injector already armed")
        self._armed = True
        armed = 0
        now = self.engine.now
        for ev in self.plan.events:
            if ev.time <= now:
                self.skipped.append(ev)
                continue
            self._events.append(
                self.engine.schedule_at(ev.time, self._deliver, ev,
                                        priority=PRIORITY_LATE))
            armed += 1
        return armed

    def disarm(self) -> int:
        """Cancel every not-yet-fired fault (the job completed; a fault
        on an idle cluster is not a failure).  Returns how many were
        cancelled."""
        n = 0
        for handle in self._events:
            if not handle.cancelled:
                handle.cancel()
                n += 1
        self._events.clear()
        return n

    # -- delivery -----------------------------------------------------------

    def _deliver(self, ev: FaultEvent) -> None:
        if ev.kind.fatal and ev.rank in self.dead_ranks:
            # the node is already gone; a second fault on it is a no-op
            self.skipped.append(ev)
            return
        if ev.kind is FaultKind.CRASH:
            self.job.fail_rank(ev.rank)
            self.dead_ranks.append(ev.rank)
        elif ev.kind is FaultKind.NIC:
            self.job.nics[ev.rank].fail()
            # unreachable node: the failure detector declares it dead
            self.job.fail_rank(ev.rank)
            self.dead_ranks.append(ev.rank)
        elif ev.kind is FaultKind.DISK:
            if self.disk_resolver is None:
                raise FaultPlanError(
                    f"DISK fault at t={ev.time} but no disk_resolver given")
            self.disk_resolver(ev.rank).fail_next_writes(ev.count)
        elif ev.kind.corrupting:
            if not self._corrupt(ev):
                self.skipped.append(ev)
                return
        else:  # pragma: no cover - enum is exhaustive
            raise FaultPlanError(f"unknown fault kind {ev.kind!r}")
        self.delivered.append(ev)
        tracer = self.engine.obs.tracer
        if tracer.enabled and tracer.wants("fault"):
            tracer.instant(f"fault.{ev.kind.value}", "fault", ev.time,
                           track="faults", rank=ev.rank,
                           fatal=ev.kind.fatal)
        if self.on_fault is not None:
            self.on_fault(ev)
        if ev.kind.fatal and self.stop_on_fatal:
            self.engine.stop()

    def _corrupt(self, ev: FaultEvent) -> bool:
        """Deliver one silent-corruption event; False when there was
        nothing to corrupt (recorded as skipped by the caller)."""
        if self.store is None:
            raise FaultPlanError(
                f"{ev.kind.value} fault at t={ev.time} but no store given")
        seq = ev.seq
        if seq is None:
            pieces = self.store.pieces(ev.rank)
            if not pieces:
                return False
            seq = pieces[-1].seq
        elif self.store.find(ev.rank, seq) is None:
            return False
        if ev.kind is FaultKind.FLIP:
            # seed folds in the fault time so two flips of the same
            # piece hit different bits, deterministically
            if self.store.flip_bits(ev.rank, seq, nbits=ev.count,
                                    seed=int(round(ev.time * 1e6))) is None:
                return False  # payload-free piece: no bytes to flip
        elif ev.kind is FaultKind.TRUNCATE:
            self.store.truncate_piece(ev.rank, seq)
        else:
            self.store.drop_piece(ev.rank, seq)
        self.corrupted.append((ev, ev.rank, seq))
        return True

    @property
    def fatal_delivered(self) -> bool:
        """True once at least one crash-class fault has been delivered."""
        return bool(self.dead_ranks)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<FaultInjector delivered={len(self.delivered)} "
                f"dead={self.dead_ranks}>")

"""The dirty-page tracker: one rank's instrumentation state.

Reproduces section 4.2 of the paper faithfully:

- at attach (the intercepted ``MPI_Init``) it write-protects the data
  memory, installs the SIGSEGV handler, arms the timeslice alarm, and
  installs the receive interceptor;
- the SIGSEGV handler records dirty pages (the page-table write path
  already marks them; the handler here does the *accounting*: fault
  counts and handler CPU cost);
- the SIGALRM handler logs the timeslice record -- dirty pages of the
  currently mapped data memory only ("memory exclusion") -- then resets
  the dirty set and re-protects every data page;
- ``mmap`` interception protects newly mapped regions immediately so
  their first writes are observed (heap growth via ``brk`` is picked up
  at the next alarm's re-protect sweep, as in the paper);
- receive interception bounces incoming data through an unprotected
  buffer and CPU-copies it into place, so received bytes dirty pages the
  normal way and are also tallied for Fig 1(b).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError
from repro.instrument.records import TimesliceRecord, TraceLog
from repro.mem import Segment
from repro.mpi.communicator import RankComm
from repro.net.message import Message
from repro.proc import Process, Signal
from repro.sim import Engine


@dataclass(frozen=True)
class TrackerConfig:
    """Tunables of the instrumentation library."""

    #: checkpoint timeslice (s): the alarm interval
    timeslice: float = 1.0
    #: CPU cost of one write-protection fault (signal delivery + handler)
    fault_cost: float = 15e-6
    #: CPU cost per page of the alarm's re-protect sweep
    reprotect_cost_per_page: float = 0.2e-6
    #: write-protect mmap'ed regions at map time (first writes observed
    #: immediately rather than after the next alarm)
    protect_on_map: bool = True
    #: intercept receives through the bounce buffer (the QsNet fix);
    #: disabling this reproduces the DMA-undercount hazard
    intercept_receives: bool = True

    def __post_init__(self) -> None:
        if self.timeslice <= 0:
            raise ConfigurationError(
                f"timeslice must be positive, got {self.timeslice}")
        if self.fault_cost < 0 or self.reprotect_cost_per_page < 0:
            raise ConfigurationError("instrumentation costs must be >= 0")


class DirtyPageTracker:
    """Attached to one rank's process (and optionally its communicator)."""

    def __init__(self, process: Process, config: Optional[TrackerConfig] = None,
                 comm: Optional[RankComm] = None, app_name: str = ""):
        self.process = process
        self.config = config or TrackerConfig()
        self.comm = comm
        self.engine: Engine = process.engine
        rank = comm.rank if comm is not None else 0
        self.log = TraceLog(rank=rank, timeslice=self.config.timeslice,
                            page_size=process.memory.page_size,
                            app_name=app_name)
        self.attached = False
        self.attach_time = 0.0
        self._slice_start = 0.0
        self._slice_faults = 0
        self._slice_received = 0
        self._slice_overhead = 0.0
        self.total_faults = 0
        #: pages write-protected again at the alarms so far
        self.pages_protected = 0
        #: called with (record, tracker) after each slice is logged but
        #: *before* the dirty set is reset -- the seam the incremental
        #: checkpoint engine uses to harvest the slice's dirty pages
        self.slice_listeners: list = []
        self._track = f"rank{self.log.rank}"

    # -- lifecycle ---------------------------------------------------------------------

    def attach(self) -> None:
        """The MPI_Init interception: install handlers, protect, arm."""
        if self.attached:
            raise ConfigurationError("tracker already attached")
        self.attached = True
        self.attach_time = self.engine.now
        self._slice_start = self.engine.now

        proc = self.process
        proc.sigaction(Signal.SIGSEGV, self._on_segv)
        proc.sigaction(Signal.SIGALRM, self._on_alarm)
        proc.setitimer(self.config.timeslice)
        proc.memory.reset_dirty()
        proc.mprotect_data()
        if self.config.protect_on_map:
            proc.memory.map_listeners.append(self._on_map)
        if self.comm is not None:
            if self.config.intercept_receives:
                self.comm.recv_interceptor = self._intercept_recv
            self.comm.receive_listeners.append(self._on_receive)

    def detach(self) -> None:
        """Remove all hooks and unprotect the data memory."""
        if not self.attached:
            return
        self.attached = False
        proc = self.process
        proc.cancel_itimer()
        proc.sigaction(Signal.SIGSEGV, None)
        proc.sigaction(Signal.SIGALRM, None)
        proc.memory.unprotect_data()
        if self._on_map in proc.memory.map_listeners:
            proc.memory.map_listeners.remove(self._on_map)
        if self.comm is not None:
            if self.comm.recv_interceptor is self._intercept_recv:
                self.comm.recv_interceptor = None
            if self._on_receive in self.comm.receive_listeners:
                self.comm.receive_listeners.remove(self._on_receive)

    # -- handlers -----------------------------------------------------------------------

    def _on_segv(self, seg: Segment, lo: int, hi: int, nfaults: int) -> None:
        """SIGSEGV: the page table already marked the pages dirty and
        unprotected them; account the faults and their CPU cost."""
        self._slice_faults += nfaults
        self.total_faults += nfaults
        cost = nfaults * self.config.fault_cost
        self._charge(cost)

    def _on_alarm(self, index: int) -> None:
        """SIGALRM: log the slice, reset, re-protect."""
        mem = self.process.memory
        now = self.engine.now
        iws_pages, footprint = mem.data_summary()
        iws_bytes = iws_pages * mem.page_size
        faults = self._slice_faults
        obs = self.engine.obs
        listeners = self.slice_listeners
        if listeners or obs.progress is not None:
            # slow path: a record object is observable this slice
            record = TimesliceRecord(
                index=index, t_start=self._slice_start, t_end=now,
                iws_pages=iws_pages, iws_bytes=iws_bytes,
                footprint_bytes=footprint, faults=faults,
                received_bytes=self._slice_received,
                overhead_time=self._slice_overhead)
            self.log.append(record)
            for listener in listeners:
                listener(record, self)
        else:
            # hot path (the scale bench): columnar append, no dataclass
            self.log.append_slice(index, self._slice_start, now, iws_pages,
                                  iws_bytes, footprint, faults,
                                  self._slice_received, self._slice_overhead)
        protected = mem.reset_and_protect()
        self.pages_protected += protected
        self._slice_start = now
        self._slice_faults = 0
        self._slice_received = 0
        self._slice_overhead = 0.0
        self._charge(protected * self.config.reprotect_cost_per_page)
        if obs.enabled:
            tracer = obs.tracer
            if tracer.enabled and tracer.wants("timeslice"):
                tracer.instant("timeslice", "timeslice", now,
                               track=self._track,
                               index=index, iws_pages=iws_pages,
                               iws_bytes=iws_bytes,
                               faults=faults,
                               footprint_bytes=footprint)
            if obs.progress is not None:
                obs.progress.on_slice(self.log.rank, record, now)

    def _on_map(self, seg: Segment) -> None:
        """mmap interception: protect the new region immediately."""
        seg.pages.protect_all()

    def _intercept_recv(self, msg: Message) -> bool:
        return True

    def _on_receive(self, msg: Message) -> None:
        self._slice_received += msg.size

    def _charge(self, cost: float) -> None:
        if cost > 0:
            self._slice_overhead += cost
            self.process.overhead_time += cost

    def charge(self, cost: float) -> None:
        """Charge extra instrumentation overhead to this rank (public
        seam for the checkpoint transport's backpressure stalls: charged
        after the alarm handler, so the cost lands in the *next*
        timeslice's overhead window)."""
        self._charge(cost)

    # -- summary ------------------------------------------------------------------------

    def slices(self) -> TraceLog:
        """The trace recorded so far."""
        return self.log

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<DirtyPageTracker rank={self.log.rank} "
                f"timeslice={self.config.timeslice} slices={len(self.log)} "
                f"faults={self.total_faults}>")

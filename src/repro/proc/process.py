"""The simulated process: address space + signals + timers.

A :class:`Process` is the unit the instrumentation library attaches to.
It does not *run* anything itself -- application workloads drive it from
a :class:`~repro.sim.process.SimProcess` body -- but it owns everything a
kernel would track for the process: the address space, signal handlers,
and interval timers.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.errors import ProtectionError, SignalError
from repro.mem import AddressSpace, Layout, Segment
from repro.proc.signals import Signal
from repro.sim import Engine, IntervalTimer


class Process:
    """A simulated UNIX process.

    Parameters mirror what the loader would establish: the sizes of the
    initialized-data and BSS segments ("compile-time" memory), the stack,
    and the page size via ``layout``.
    """

    def __init__(self, engine: Engine, name: str = "proc", *,
                 layout: Optional[Layout] = None,
                 data_size: int = 0, bss_size: int = 0,
                 stack_size: int = 64 * 1024):
        self.engine = engine
        self.name = name
        self.memory = AddressSpace(layout, data_size=data_size,
                                   bss_size=bss_size, stack_size=stack_size)
        self._signal_handlers: dict[Signal, Callable[..., Any]] = {}
        self._itimer: Optional[IntervalTimer] = None
        #: CPU time spent in instrumentation (fault handling, re-protect
        #: sweeps, bounce-buffer copies); charged by the tracker and,
        #: when the workload runs with ``charge_overhead``, folded back
        #: into the application's wall clock (the section 6.5 slowdown).
        self.overhead_time: float = 0.0
        # SIGSEGV delivery: the MMU reports faults; if a handler is
        # installed we invoke it per faulting write (the recording the
        # paper's library does).  Without a handler a protected-page
        # store is a real crash.
        self.memory.fault_listeners.append(self._deliver_segv)

    # -- signals ---------------------------------------------------------------

    def sigaction(self, sig: Signal, handler: Optional[Callable[..., Any]]) -> None:
        """Install (or with None, remove) a signal handler.

        SIGSEGV handlers receive ``(segment, lo_page, hi_page, nfaults)``;
        SIGALRM handlers receive the expiry index.
        """
        if not isinstance(sig, Signal):
            raise SignalError(f"unknown signal {sig!r}")
        if handler is None:
            self._signal_handlers.pop(sig, None)
        else:
            self._signal_handlers[sig] = handler

    def _deliver_segv(self, seg: Segment, lo: int, hi: int, nfaults: int) -> None:
        handler = self._signal_handlers.get(Signal.SIGSEGV)
        if handler is not None:
            handler(seg, lo, hi, nfaults)

    # -- timers ----------------------------------------------------------------

    def setitimer(self, interval: float,
                  start_after: Optional[float] = None) -> IntervalTimer:
        """Arm the (single) real-interval timer; expiries deliver SIGALRM
        to the installed handler.  Re-arming cancels the previous timer."""
        if self._itimer is not None:
            self._itimer.cancel()

        def deliver(index: int) -> None:
            handler = self._signal_handlers.get(Signal.SIGALRM)
            if handler is not None:
                handler(index)

        self._itimer = IntervalTimer(self.engine, interval, deliver,
                                     start_after=start_after,
                                     name=f"{self.name}.itimer")
        return self._itimer

    def cancel_itimer(self) -> None:
        """Disarm the interval timer, if armed."""
        if self._itimer is not None:
            self._itimer.cancel()
            self._itimer = None

    def next_timer_expiry(self) -> Optional[float]:
        """Absolute time of the next SIGALRM, or None.  Compute phases use
        this to stop exactly at timeslice boundaries (EINTR-style)."""
        if self._itimer is None:
            return None
        return self._itimer.next_expiry()

    # -- syscalls (delegation to the address space) ------------------------------------

    def sbrk(self, delta: int) -> int:
        """Move the program break by ``delta`` bytes; returns the old one."""
        return self.memory.sbrk(delta)

    def brk(self, addr: int) -> None:
        """Set the program break to ``addr`` (page-aligned upward)."""
        self.memory.sbrk(addr - self.memory.brk)

    def mmap(self, size: int, name: str = "") -> Segment:
        """Map a new anonymous region (the intercepted syscall)."""
        return self.memory.mmap(size, name=name)

    def munmap(self, addr: int, size: int) -> None:
        """Unmap ``[addr, addr+size)`` (the intercepted syscall)."""
        self.memory.munmap(addr, size)

    def mprotect_data(self, readonly: bool = True) -> int:
        """(Un)protect the whole data memory, as the library does at
        MPI_Init and at each alarm."""
        if readonly:
            return self.memory.protect_data()
        self.memory.unprotect_data()
        return 0

    def mprotect(self, seg: Segment, lo: int, hi: int, readonly: bool = True) -> None:
        """mprotect a page range of one segment."""
        if not seg.kind.is_data_memory and readonly:
            raise ProtectionError(
                f"cannot write-protect {seg.kind.value} segment (section 4.2)")
        seg.pages.protect_range(lo, hi, value=readonly)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name!r} {self.memory!r}>"

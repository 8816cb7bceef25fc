"""The network interface, including QsNet-style direct user-space access.

The QsNet Elan NIC deposits received data straight into the destination
buffer in user memory.  Against ``mprotect``-based dirty tracking this is
a hazard twice over (paper, section 4.2):

1. the DMA store takes no page fault, so modified pages are *not*
   recorded as dirty -- an incremental checkpoint would silently lose
   received data;
2. the NIC may fail outright writing to a write-protected page.

The paper's workaround, reproduced here, is to intercept receive calls:
the message lands in an unprotected *bounce buffer* and is then copied by
the CPU to its true destination, taking ordinary faults for pages not yet
written in the timeslice (at the cost of an extra memory copy).
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from repro.errors import NetworkError
from repro.mem import WriteResult
from repro.net.message import Message
from repro.net.network import Network
from repro.proc.process import Process
from repro.units import GiB


class DepositResult(NamedTuple):
    """Outcome of landing a message payload in user memory.  (A
    NamedTuple: one is built per received message.)"""

    write: WriteResult
    copy_time: float      #: CPU time spent on the bounce-buffer copy (s)
    intercepted: bool


class NIC:
    """One node's network interface.

    ``on_message`` is the upcall used by the MPI runtime to match
    receives.  ``deposit`` is called (by the runtime) once a matching
    receive supplies a destination buffer.
    """

    def __init__(self, node: int, network: Network, process: Process, *,
                 memcpy_bandwidth: float = 2.0 * GiB,
                 strict_dma: bool = True):
        self.node = node
        self.network = network
        self.process = process
        self.engine = process.engine
        self.memcpy_bandwidth = memcpy_bandwidth
        #: with strict_dma, direct deposit into a protected page is an
        #: error (the hardware conflict the bounce buffer exists to avoid)
        self.strict_dma = strict_dma
        self.on_message: Optional[Callable[[Message], None]] = None
        self.bytes_received = 0
        self.messages_received = 0
        self.dma_missed_pages = 0
        #: fault-injection state: a failed NIC delivers nothing
        self.failed = False
        self.messages_dropped = 0
        self._track = f"nic{node}"
        network.attach(node, self._receive)

    def _receive(self, msg: Message) -> None:
        if self.failed:
            self.messages_dropped += 1
            return
        self.bytes_received += msg.size
        self.messages_received += 1
        obs = self.engine.obs
        if obs.enabled:
            tracer = obs.tracer
            if tracer.enabled and tracer.wants("net"):
                tracer.instant("nic.recv", "net", self.engine.now,
                               track=self._track, src=msg.src,
                               size=msg.size, tag=msg.tag)
        if self.on_message is not None:
            self.on_message(msg)

    # -- deposit paths ------------------------------------------------------------

    def deposit(self, addr: int, size: int, *, intercept: bool) -> DepositResult:
        """Land ``size`` received bytes at ``addr`` in the process's memory.

        ``intercept=True`` takes the bounce-buffer path (CPU copy, normal
        faulting); ``intercept=False`` is the raw QsNet DMA path.
        """
        if size <= 0:
            raise NetworkError(f"non-positive deposit size {size}")
        if intercept:
            write = self.process.memory.cpu_write(addr, size)
            return DepositResult(write=write,
                                 copy_time=size / self.memcpy_bandwidth,
                                 intercepted=True)
        if self.strict_dma and self._target_protected(addr, size):
            raise NetworkError(
                f"NIC DMA into write-protected page(s) at {addr:#x} "
                "(enable receive interception, or disable protection)")
        write = self.process.memory.dma_write(addr, size)
        self.dma_missed_pages += write.missed
        return DepositResult(write=write, copy_time=0.0, intercepted=False)

    def _target_protected(self, addr: int, size: int) -> bool:
        seg = self.process.memory.find_segment(addr)
        if seg is None:
            return False  # dma_write will raise the real segfault
        try:
            lo, hi = seg.page_range(addr, size)
        except Exception:
            return False
        return seg.pages.any_protected(lo, hi)

    def detach(self) -> None:
        """Take this NIC off the network (node failure)."""
        self.network.detach(self.node)

    # -- fault injection ----------------------------------------------------------

    def fail(self) -> None:
        """Permanent NIC failure: detach from the fabric and discard any
        message already queued toward this node.  Idempotent."""
        if self.failed:
            return
        self.failed = True
        self.detach()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<NIC node={self.node} rx={self.messages_received}msgs>"

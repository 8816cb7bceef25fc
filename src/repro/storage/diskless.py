"""Diskless checkpointing: stable storage in a peer's memory.

Plank's diskless checkpointing (related work, section 7) avoids the disk
bottleneck by storing checkpoints in the memory of other nodes.  The
sink here keeps the sink contract of :mod:`repro.storage`, so the
coordinated checkpoint engine can use it in place of a disk:

- a write streams over the interconnect (link latency + size/bandwidth)
  and lands in the buddy's memory at memcpy speed;
- writes from one node serialize at its NIC, like disk writes at the
  spindle;
- the buddy donates a *capacity*: exceeding it is an error -- the real
  cost of diskless checkpointing is memory, which is why the engine
  should retire old checkpoints (``release``).
"""

from __future__ import annotations

from repro.errors import StorageError
from repro.net.models import LinkSpec, QSNET2
from repro.sim import Engine, Future
from repro.units import GiB


class DisklessSink:
    """Checkpoint sink backed by a buddy node's memory."""

    def __init__(self, engine: Engine, link: LinkSpec = QSNET2,
                 memcpy_bandwidth: float = 2.0 * GiB,
                 capacity: int = 2 * GiB, name: str = "diskless"):
        if memcpy_bandwidth <= 0:
            raise StorageError("memcpy bandwidth must be positive")
        if capacity <= 0:
            raise StorageError("buddy capacity must be positive")
        self.engine = engine
        self.link = link
        self.memcpy_bandwidth = memcpy_bandwidth
        self.capacity = capacity
        self.name = name
        self._free_at = 0.0
        self.bytes_written = 0
        self.bytes_held = 0
        self.ops = 0

    @property
    def bandwidth(self) -> float:
        """The memcpy bandwidth into the buddy's memory, B/s."""
        return self.memcpy_bandwidth

    def write(self, nbytes: int) -> Future:
        """Stream ``nbytes`` to the buddy; future resolves at durability
        (in the buddy's memory)."""
        done_at = self._take(nbytes, "write", self.link.latency
                             + nbytes / self.link.bandwidth
                             + nbytes / self.memcpy_bandwidth)
        fut = Future(self.engine, label=f"{self.name}.write#{self.ops}")
        self.engine.schedule_at(done_at, fut.resolve, done_at)
        return fut

    def reserve(self, nbytes: int) -> tuple[float, bool]:
        """Deposit ``nbytes`` that already crossed the fabric (the
        checkpoint transport simulated the wire itself): charge only the
        memcpy into the buddy's memory plus capacity.  No future or
        event: returns ``(done_at, ok)`` for the caller to schedule its
        own completion (``ok`` is always True; memory does not fail)."""
        return self._take(nbytes, "ingest",
                          nbytes / self.memcpy_bandwidth), True

    def _take(self, nbytes: int, op: str, duration: float) -> float:
        """Take ``nbytes`` into the buddy's memory once the NIC is free
        and ``duration`` has passed; returns the completion time."""
        if nbytes < 0:
            raise StorageError(f"negative {op} size {nbytes}")
        if self.bytes_held + nbytes > self.capacity:
            raise StorageError(
                f"{self.name}: buddy memory exhausted "
                f"({self.bytes_held + nbytes} > {self.capacity}); release "
                "retired checkpoints first")
        done_at = max(self.engine.now, self._free_at) + duration
        self._free_at = done_at
        self.bytes_written += nbytes
        self.bytes_held += nbytes
        self.ops += 1
        return done_at

    def release(self, nbytes: int) -> None:
        """Retire ``nbytes`` of old checkpoints from the buddy's memory."""
        if nbytes < 0 or nbytes > self.bytes_held:
            raise StorageError(
                f"cannot release {nbytes} of {self.bytes_held} held bytes")
        self.bytes_held -= nbytes

    def queue_delay(self) -> float:
        """How long a write issued now would wait before starting."""
        return max(0.0, self._free_at - self.engine.now)

    def write_duration(self, nbytes: int) -> float:
        """Seconds a write of ``nbytes`` issued now takes: the queue
        ahead of it plus the trip over the link."""
        return self.queue_delay() + self.link.transfer_time(nbytes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        from repro.units import fmt_bytes
        return (f"<DisklessSink {self.name!r} held={fmt_bytes(self.bytes_held)}"
                f"/{fmt_bytes(self.capacity)}>")

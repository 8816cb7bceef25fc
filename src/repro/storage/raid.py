"""RAID-0 style striping across disks: aggregate checkpoint bandwidth.

The paper argues secondary-storage arrays provide the bandwidth headroom
for frequent incremental checkpoints; a stripe set of N disks sinks
roughly N times the single-disk rate for the large sequential writes a
checkpoint produces.
"""

from __future__ import annotations

from repro.errors import StorageError
from repro.sim import Engine, Future
from repro.storage.disk import Disk
from repro.storage.models import DiskSpec, SCSI_ULTRA320


class StorageArray:
    """Stripes writes round-robin across member disks.

    A write of B bytes with stripe unit u is split into ceil(B/u) chunks
    dealt to the disks in order; the write completes when every chunk is
    durable.
    """

    def __init__(self, engine: Engine, ndisks: int,
                 spec: DiskSpec = SCSI_ULTRA320,
                 stripe_unit: int = 1 << 20, name: str = "array"):
        if ndisks < 1:
            raise StorageError(f"array needs at least one disk, got {ndisks}")
        if stripe_unit <= 0:
            raise StorageError(f"stripe unit must be positive, got {stripe_unit}")
        self.engine = engine
        self.stripe_unit = stripe_unit
        self.name = name
        self.disks = [Disk(engine, spec, name=f"{name}.d{i}")
                      for i in range(ndisks)]
        self._next = 0

    @property
    def ndisks(self) -> int:
        return len(self.disks)

    @property
    def bandwidth(self) -> float:
        """Peak sequential bandwidth of the stripe set, B/s."""
        return sum(d.spec.bandwidth for d in self.disks)

    @property
    def bytes_written(self) -> int:
        """Total bytes written across the stripe set."""
        return sum(d.bytes_written for d in self.disks)

    def write(self, nbytes: int) -> Future:
        """Striped write; future resolves when all chunks are durable,
        with ``None`` if any chunk failed (as :meth:`Disk.write` does)."""
        if nbytes == 0:
            fut = Future(self.engine, label=f"{self.name}.write0")
            fut.resolve(self.engine.now)
            return fut
        done_at, ok = self.reserve(nbytes)
        fut = Future(self.engine, label=f"{self.name}.write.done")
        self.engine.schedule_at(done_at, fut.resolve,
                                done_at if ok else None)
        return fut

    def reserve(self, nbytes: int) -> tuple[float, bool]:
        """Deal ``nbytes`` to the member disks and return ``(done_at,
        ok)``: the last chunk's completion, and whether every chunk
        succeeded.  No future or event; the caller schedules its own
        completion at ``done_at``."""
        if nbytes < 0:
            raise StorageError(f"negative write size {nbytes}")
        done_at, ok = self.engine.now, True
        remaining = nbytes
        while remaining > 0:
            chunk = min(remaining, self.stripe_unit)
            chunk_done, chunk_ok = self.disks[self._next].reserve(chunk)
            done_at = max(done_at, chunk_done)
            ok = ok and chunk_ok
            self._next = (self._next + 1) % len(self.disks)
            remaining -= chunk
        return done_at, ok

    def write_duration(self, nbytes: int) -> float:
        """Seconds a write of ``nbytes`` takes at the stripe set's
        aggregate bandwidth (member queues are not consulted)."""
        return nbytes / self.bandwidth

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<StorageArray {self.name!r} ndisks={self.ndisks}>"

"""A single disk with a serialized write queue."""

from __future__ import annotations

from repro.errors import StorageError
from repro.sim import Engine, Future
from repro.storage.models import DiskSpec, SCSI_ULTRA320


class Disk:
    """Sequential-write disk: operations queue and complete in order.

    ``write`` returns a :class:`~repro.sim.Future` resolving (with the
    completion time) when the data is on stable storage; simulated
    processes can ``yield`` it to block for durability.
    """

    def __init__(self, engine: Engine, spec: DiskSpec = SCSI_ULTRA320,
                 name: str = "disk"):
        self.engine = engine
        self.spec = spec
        self.name = name
        self._free_at = 0.0
        self.bytes_written = 0
        self.ops = 0
        self.busy_time = 0.0
        self._fail_budget = 0
        self.writes_failed = 0

    @property
    def bandwidth(self) -> float:
        """Peak sequential write bandwidth, B/s."""
        return self.spec.bandwidth

    def write(self, nbytes: int) -> Future:
        """Enqueue a write of ``nbytes``; returns a completion future.

        The future resolves with the completion time on success, or with
        ``None`` when the write was hit by an injected media failure (the
        data never reached stable storage; the disk still spent the
        time).
        """
        done_at, ok = self.reserve(nbytes)
        fut = Future(self.engine, label=f"{self.name}.write#{self.ops}")
        self.engine.schedule_at(done_at, fut.resolve,
                                done_at if ok else None)
        return fut

    def reserve(self, nbytes: int) -> tuple[float, bool]:
        """Queue a write of ``nbytes`` and return ``(done_at, ok)``.

        The same accounting as :meth:`write` -- queue position, ops,
        injected failures, counters -- without a future or an event:
        the caller schedules its own completion at ``done_at``.  ``ok``
        is False when the write was hit by an injected media failure.
        """
        if nbytes < 0:
            raise StorageError(f"negative write size {nbytes}")
        now = self.engine.now
        start = max(now, self._free_at)
        duration = self.spec.write_time(nbytes)
        done_at = start + duration
        self._free_at = done_at
        self.ops += 1
        self.busy_time += duration
        if self._fail_budget > 0:
            self._fail_budget -= 1
            self.writes_failed += 1
            ok = False
        else:
            self.bytes_written += nbytes
            ok = True
        obs = self.engine.obs
        if obs.enabled:
            tracer = obs.tracer
            if tracer.enabled and tracer.wants("storage"):
                tracer.complete("disk.write", "storage", start, duration,
                                track=self.name, bytes=nbytes,
                                failed=not ok)
        return done_at, ok

    def fail_next_writes(self, count: int = 1) -> None:
        """Fault injection: the next ``count`` writes fail (their futures
        resolve with ``None`` instead of a completion time)."""
        if count < 1:
            raise StorageError(f"failure count must be >= 1, got {count}")
        self._fail_budget += count

    def queue_delay(self) -> float:
        """How long a write issued now would wait before starting."""
        return max(0.0, self._free_at - self.engine.now)

    def write_duration(self, nbytes: int) -> float:
        """Seconds a write of ``nbytes`` issued now takes to become
        durable: the queue ahead of it plus its own transfer."""
        return self.queue_delay() + self.spec.write_time(nbytes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        from repro.units import fmt_bytes
        return (f"<Disk {self.name!r} {self.spec.name} "
                f"written={fmt_bytes(self.bytes_written)} ops={self.ops}>")

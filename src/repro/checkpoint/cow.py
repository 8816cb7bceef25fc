"""Copy-on-write checkpoint write-out.

A real incremental checkpointer cannot freeze the application while the
delta streams to disk; it keeps the captured pages write-protected and
*copies on demand* any page the application touches before it has been
flushed.  Each such collision costs an extra page copy (and a fault),
charged to the application -- this is the interference that makes
checkpointing *inside* a processing burst expensive and motivates the
paper's advice to checkpoint between bursts (section 6.2).

:class:`CowWriteout` models one in-flight write-out: given the captured
page set and the stream duration, it watches the process's write faults
and charges a copy cost for every captured-but-unflushed page hit.
Flushing progresses linearly over the stream duration, so early
collisions are more likely than late ones, exactly as in a real
sequential write-out.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.checkpoint.snapshot import Checkpoint
from repro.errors import CheckpointError
from repro.mem import Segment
from repro.proc import Process
from repro.sim import Engine
from repro.units import GiB


class CowWriteout:
    """One checkpoint's copy-on-write window."""

    def __init__(self, process: Process, checkpoint: Checkpoint,
                 duration: float, *, memcpy_bandwidth: float = 2.0 * GiB):
        if duration < 0:
            raise CheckpointError(f"negative write-out duration {duration}")
        if memcpy_bandwidth <= 0:
            raise CheckpointError("memcpy bandwidth must be positive")
        self.process = process
        self.engine: Engine = process.engine
        self.duration = duration
        self.memcpy_bandwidth = memcpy_bandwidth
        self.page_size = checkpoint.page_size
        self.start_time = self.engine.now
        #: sid -> sorted array of captured page indices not yet flushed
        per_page = checkpoint.page_size // checkpoint.block_size
        self._pending: dict[int, np.ndarray] = {
            p.sid: np.unique(p.indices // per_page)
            for p in checkpoint.payloads
        }
        self._pending_total = sum(len(v) for v in self._pending.values())
        self._initial_total = max(self._pending_total, 1)
        self.cow_copies = 0
        self.cow_time = 0.0
        self._active = self._pending_total > 0 and duration > 0
        if self._active:
            self.process.memory.fault_listeners.append(self._on_fault)
            self.engine.schedule(duration, self.finish)

    # -- flush progress -------------------------------------------------------------

    def _flushed_fraction(self) -> float:
        if self.duration <= 0:
            return 1.0
        return min(1.0, (self.engine.now - self.start_time) / self.duration)

    def _advance_flush(self) -> None:
        """Retire the prefix of pending pages the stream has covered
        (write-out proceeds in index order per segment)."""
        frac = self._flushed_fraction()
        target_remaining = round(self._initial_total * (1.0 - frac))
        to_retire = self._pending_total - target_remaining
        if to_retire <= 0:
            return
        for sid in list(self._pending):
            arr = self._pending[sid]
            take = min(to_retire, len(arr))
            if take:
                self._pending[sid] = arr[take:]
                self._pending_total -= take
                to_retire -= take
            if to_retire <= 0:
                break

    # -- the collision path ------------------------------------------------------------

    def _on_fault(self, seg: Segment, lo: int, hi: int, nfaults: int) -> None:
        if not self._active:
            return
        arr = self._pending.get(seg.sid)
        if arr is None or len(arr) == 0:
            return
        self._advance_flush()
        arr = self._pending.get(seg.sid)
        if arr is None or len(arr) == 0:
            return
        # captured pages in [lo, hi) that the stream has not reached yet
        a, b = np.searchsorted(arr, [lo, hi])
        hits = b - a
        if hits <= 0:
            return
        self._pending[seg.sid] = np.concatenate([arr[:a], arr[b:]])
        self._pending_total -= hits
        self.cow_copies += int(hits)
        cost = hits * self.page_size / self.memcpy_bandwidth
        self.cow_time += cost
        self.process.overhead_time += cost

    def finish(self) -> None:
        """End the window (called automatically at stream completion)."""
        if not self._active:
            return
        self._active = False
        listeners = self.process.memory.fault_listeners
        if self._on_fault in listeners:
            listeners.remove(self._on_fault)

    @property
    def active(self) -> bool:
        return self._active

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<CowWriteout pending={self._pending_total} "
                f"copies={self.cow_copies} active={self._active}>")

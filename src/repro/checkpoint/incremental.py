"""Incremental checkpoints: save only what changed since the last one.

The capture set for one checkpoint interval is the union of

1. the *dirty pages* of every timeslice since the previous capture --
   harvested via :meth:`observe` before each alarm's dirty-reset (the
   tracker's ``slice_listeners`` seam), and
2. *new pages*: pages beyond a segment's size at the previous capture,
   and whole newly mapped segments.  These are saved unconditionally
   because writes to them may predate their write-protection (heap
   growth through ``brk`` is only protected at the next alarm).

Heap shrink-then-regrow between captures is caught through the address
space's resize listener: the low-water mark marks regrown pages as new.
Unmapped segments simply vanish from the geometry -- the memory
exclusion of section 4.2: their dirty pages are never saved.

Contract: a capture is taken at a timeslice alarm, whose handler then
resets the dirty set and **re-protects the data memory**.  Standalone
users must do the same (``memory.reset_dirty(); memory.protect_data()``)
after each capture, or writes following the capture will not fault and
the next delta will miss them -- exactly the failure mode an OS-level
implementation prevents by re-arming protection in the handler.

The capture loop is block-granular: a delta saves ``block_size``-byte
units, and the paper's page-granular scheme is the default
``block_size == page_size``, where a unit is a whole page.  Sub-page
blocks need per-block write tracking and a hash baseline to tell which
blocks of a dirty page moved; :class:`~repro.checkpoint.dcp.DcpCheckpointer`
adds that machinery through the :meth:`IncrementalCheckpointer._units`
hook.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.checkpoint.full import geometry_of
from repro.checkpoint.snapshot import Checkpoint, Payload, SegmentRecord
from repro.errors import CheckpointError
from repro.mem import AddressSpace, SegmentKind


class IncrementalCheckpointer:
    """Per-process incremental capture engine."""

    def __init__(self, memory: AddressSpace,
                 block_size: Optional[int] = None):
        if block_size is None:
            block_size = memory.page_size
        if block_size < 1 or memory.page_size % block_size:
            raise CheckpointError(
                f"block size {block_size} must be >= 1 and divide "
                f"the page size {memory.page_size}")
        self.memory = memory
        #: unit granularity of the deltas (bytes)
        self.block_size = block_size
        #: sid -> accumulated dirty mask (grown lazily)
        self._dirty: dict[int, np.ndarray] = {}
        #: sid -> geometry record at the last capture or baseline: the
        #: sizes new pages are counted from, reused by the next capture
        #: while the segment's sid, base and size are unchanged
        self._records: dict[int, SegmentRecord] = {}
        #: heap low-water mark (pages) since the last capture
        self._heap_low: Optional[int] = None
        self._captures = 0
        memory.heap_resize_listeners.append(self._on_heap_resize)

    # -- observation -----------------------------------------------------------------

    def observe(self) -> None:
        """Fold the current dirty bits into the accumulator.  Call once
        per timeslice *before* the tracker resets the dirty set; safe to
        call at any other time too (idempotent for unchanged state).

        A segment is folded only when its O(1)
        :meth:`~repro.mem.PageTable.dirty_count` is non-zero: the count
        equals the dirty popcount, so a clean segment has nothing to
        fold."""
        for seg in self.memory.data_segments():
            if not seg.pages.dirty_count():
                continue
            acc = self._dirty.get(seg.sid)
            if acc is None or len(acc) < seg.npages:
                grown = np.zeros(seg.npages, dtype=bool)
                if acc is not None:
                    grown[:len(acc)] = acc
                acc = grown
                self._dirty[seg.sid] = acc
            acc[:seg.npages] |= seg.pages.dirty

    def _on_heap_resize(self, old_npages: int, new_npages: int) -> None:
        if new_npages < old_npages:
            low = self._heap_low
            self._heap_low = new_npages if low is None else min(low, new_npages)

    # -- capture ----------------------------------------------------------------------

    def _new_from(self, seg) -> int:
        """First page of ``seg`` saved *unconditionally*: a whole new
        segment is new from page 0, otherwise the pages grown since the
        last capture (or regrown above the heap's low-water mark) are
        new -- writes there may predate protection."""
        rec = self._records.get(seg.sid)
        if rec is None:
            return 0
        if self._heap_low is not None and seg.kind is SegmentKind.HEAP:
            return min(rec.npages, self._heap_low)
        return rec.npages

    def _units(self, seg, pages: np.ndarray,
               new_from: int) -> tuple[np.ndarray, np.ndarray]:
        """The units to save out of the masked ``pages``, and their
        versions; pages from ``new_from`` on are new.  Without block
        tracking every block of a masked page goes out at the page's
        write version; at one block per page a unit is simply a page."""
        versions = seg.pages.versions[pages]
        per_page = self.memory.page_size // self.block_size
        if per_page == 1:
            return pages, versions
        return ((pages[:, None] * per_page + np.arange(per_page)).ravel(),
                np.repeat(versions, per_page))

    def capture(self, seq: int, taken_at: float = 0.0) -> Checkpoint:
        """Produce the delta checkpoint and reset the accumulator.

        Includes an implicit :meth:`observe`, so pages dirty *right now*
        are never missed.  A segment with no accumulated dirty page and
        no new page is skipped before any mask is built: it has no units
        to save.
        """
        self.observe()
        payloads = []
        for seg in self.memory.data_segments():
            npages = seg.npages
            if npages == 0:
                continue
            new_from = self._new_from(seg)
            acc = self._dirty.get(seg.sid)
            if new_from >= npages:
                if acc is None:
                    continue
                pages = np.flatnonzero(acc[:npages])
            else:
                mask = np.zeros(npages, dtype=bool)
                if acc is not None:
                    n = min(len(acc), npages)
                    mask[:n] = acc[:n]
                mask[new_from:] = True
                pages = np.flatnonzero(mask)
            indices, versions = self._units(seg, pages, new_from)
            if len(indices):
                payloads.append(Payload(
                    sid=seg.sid, indices=indices, versions=versions))
        page_size = self.memory.page_size
        ckpt = Checkpoint(
            seq=seq,
            kind="dcp" if self.block_size < page_size else "incremental",
            taken_at=taken_at, page_size=page_size,
            geometry=geometry_of(self.memory, self._records),
            payloads=tuple(payloads),
            block_size=self.block_size)
        self._reset_after_capture()
        self._captures += 1
        return ckpt

    def mark_baseline(self) -> None:
        """Declare the current state fully saved (call after a *full*
        checkpoint so the next delta is relative to it)."""
        geometry_of(self.memory, self._records)
        self._reset_after_capture()

    def _reset_after_capture(self) -> None:
        self._dirty.clear()
        self._heap_low = None

    @property
    def captures(self) -> int:
        return self._captures

    def detach(self) -> None:
        """Remove the heap-resize listener (end of life)."""
        listeners = self.memory.heap_resize_listeners
        if self._on_heap_resize in listeners:
            listeners.remove(self._on_heap_resize)

"""Dense reference capture for the sparse-capture differential.

The production :class:`~repro.checkpoint.IncrementalCheckpointer` visits
only segments with something to save: :meth:`observe` folds only
segments whose dirty count is non-zero, :meth:`capture` skips a segment
with no accumulated dirty page and no new page before building any
mask, and the geometry reuses unchanged records.  The checkpointers here
keep the dense loop it replaced -- every segment folded at every
observe, masks built and units selected for every mapped segment at
every capture, every geometry record built afresh -- so a differential
can hold the sparse loop to the checkpoints the dense one produces.

:class:`DenseCheckpointer` is the page-granular (or whole-block)
reference; :class:`DenseDcpCheckpointer` puts the same loop under
:class:`~repro.checkpoint.DcpCheckpointer`'s sub-page unit selection.
"""

from __future__ import annotations

import numpy as np

from repro.checkpoint import DcpCheckpointer, IncrementalCheckpointer
from repro.checkpoint.snapshot import Checkpoint, Payload, SegmentRecord


def dense_geometry(memory) -> tuple[SegmentRecord, ...]:
    """A fresh record for every mapped data segment."""
    return tuple(SegmentRecord(sid=seg.sid, kind=seg.kind.value,
                               base=seg.base, npages=seg.npages)
                 for seg in memory.data_segments())


class DenseCheckpointer(IncrementalCheckpointer):
    """Observe and capture that touch every mapped data segment."""

    def __init__(self, memory, block_size=None):
        #: sid -> segment size (pages) at the last capture or baseline
        self._last_npages: dict[int, int] = {}
        super().__init__(memory, block_size)

    def _reset_after_capture(self) -> None:
        super()._reset_after_capture()
        self._last_npages = {seg.sid: seg.npages
                             for seg in self.memory.data_segments()}

    def observe(self) -> None:
        for seg in self.memory.data_segments():
            if seg.npages == 0:
                continue
            acc = self._dirty.get(seg.sid)
            if acc is None or len(acc) < seg.npages:
                grown = np.zeros(seg.npages, dtype=bool)
                if acc is not None:
                    grown[:len(acc)] = acc
                acc = grown
                self._dirty[seg.sid] = acc
            acc[:seg.npages] |= seg.pages.dirty

    def _capture_masks(self, seg) -> tuple[np.ndarray, int]:
        """``(mask, new_from)``: the full per-page capture set, and the
        first page saved unconditionally."""
        new = np.zeros(seg.npages, dtype=bool)
        known = self._last_npages.get(seg.sid)
        new_from = 0
        if known is not None:
            new_from = known
            if seg.kind.value == "heap" and self._heap_low is not None:
                new_from = min(new_from, self._heap_low)
        new[new_from:] = True
        mask = new.copy()
        acc = self._dirty.get(seg.sid)
        if acc is not None:
            n = min(len(acc), seg.npages)
            mask[:n] |= acc[:n]
        return mask, new_from

    def capture(self, seq: int, taken_at: float = 0.0) -> Checkpoint:
        self.observe()
        payloads = []
        for seg in self.memory.data_segments():
            if seg.npages == 0:
                continue
            mask, new_from = self._capture_masks(seg)
            indices, versions = self._units(seg, np.flatnonzero(mask),
                                            new_from)
            if len(indices):
                payloads.append(Payload(
                    sid=seg.sid, indices=indices, versions=versions))
        page_size = self.memory.page_size
        ckpt = Checkpoint(
            seq=seq,
            kind="dcp" if self.block_size < page_size else "incremental",
            taken_at=taken_at, page_size=page_size,
            geometry=dense_geometry(self.memory), payloads=tuple(payloads),
            block_size=self.block_size)
        self._reset_after_capture()
        self._captures += 1
        return ckpt


class DenseDcpCheckpointer(DcpCheckpointer, DenseCheckpointer):
    """:class:`DcpCheckpointer` over the dense loop: its ``capture``
    resets the ``last_*`` stats, then runs :class:`DenseCheckpointer`'s
    loop, which calls the dcp ``_units`` for every mapped segment."""

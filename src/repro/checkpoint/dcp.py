"""Differential (sub-page) checkpoints: hash blocks, save only changes.

Page-granular incremental checkpointing (section 4 of the paper) pays
for *false sharing*: one dirty byte charges a whole page to stable
storage.  The dcp mode splits every dirty page into fixed-size blocks,
hashes each block, compares against the per-page hash vector recorded
at the previous checkpoint, and emits only the blocks whose hash moved
-- the differential scheme later literature (see PAPERS.md) showed
recovers most of the page-granularity waste at a modest hash cost.

A block's "hash" is its 64-bit write version from the
:class:`~repro.mem.blocks.BlockTable`.  That is exact by construction --
a block whose bytes changed was written, so its version moved -- and
restores are *version-identical*, so every restore reproduces the
captured ``state_digest()``.

Pages in the unconditionally-new portion of the capture mask (new
segments, heap growth, shrink-then-regrow) emit **all** their blocks
regardless of hash comparison: their baseline rows are stale or
absent, and the incremental checkpointer saves them whole for the same
reason.  The capture loop itself is
:meth:`IncrementalCheckpointer.capture`; this class only supplies the
sub-page unit selection.  At ``block_size == page_size`` the plain
:class:`IncrementalCheckpointer` needs none of it, and the checkpoint
engine uses that instead.
"""

from __future__ import annotations

import numpy as np

from repro.checkpoint.incremental import IncrementalCheckpointer
from repro.checkpoint.snapshot import Checkpoint, SEGMENT_HEADER_BYTES
from repro.mem import AddressSpace, Segment

#: baseline sentinel for blocks that have never been hashed; a real
#: hash colliding with it merely forces a spurious (safe) emit
NEVER_HASHED = np.uint64(0xFFFFFFFFFFFFFFFF)


class DcpCheckpointer(IncrementalCheckpointer):
    """Per-process differential capture engine.

    Same observe/capture/mark_baseline contract as
    :class:`IncrementalCheckpointer`; sub-page block sizes make the
    deltas ``"dcp"`` checkpoints.
    """

    def __init__(self, memory: AddressSpace, block_size: int = 256):
        super().__init__(memory, block_size)
        self.blocks_per_page = memory.enable_block_tracking(block_size)
        #: sid -> flat per-block baseline hash vector (one uint64 per
        #: block of the segment, NEVER_HASHED where no hash exists yet)
        self._baseline: dict[int, np.ndarray] = {}
        # per-capture stats (for ckpt.dcp.* observability)
        self.last_blocks_hashed = 0
        self.last_blocks_written = 0
        #: what the page-granular incremental delta would have cost
        self.last_page_mode_nbytes = 0

    # -- hashing ---------------------------------------------------------------

    def _hashes_of(self, seg: Segment, pages: np.ndarray) -> np.ndarray:
        """Current block hash vectors for the given pages, shape
        ``(len(pages), blocks_per_page)``."""
        bpp = self.blocks_per_page
        return seg.blocks.versions.reshape(-1, bpp)[pages].copy()

    def _baseline_for(self, seg: Segment) -> np.ndarray:
        """The segment's baseline vector, resized to its current
        geometry (new blocks arrive as NEVER_HASHED)."""
        want = seg.npages * self.blocks_per_page
        base = self._baseline.get(seg.sid)
        if base is None:
            base = np.full(want, NEVER_HASHED, dtype=np.uint64)
            self._baseline[seg.sid] = base
        elif len(base) < want:
            grown = np.full(want, NEVER_HASHED, dtype=np.uint64)
            grown[:len(base)] = base
            base = grown
            self._baseline[seg.sid] = base
        elif len(base) > want:
            base = base[:want].copy()
            self._baseline[seg.sid] = base
        return base

    # -- capture ---------------------------------------------------------------

    def _units(self, seg: Segment, pages: np.ndarray,
               new_from: int) -> tuple[np.ndarray, np.ndarray]:
        """The blocks of the masked ``pages`` whose hash moved since the
        baseline, plus every block of a new page (from ``new_from`` on)."""
        bpp = self.blocks_per_page
        baseline = self._baseline_for(seg)
        self.last_page_mode_nbytes += len(pages) * self.memory.page_size
        current = self._hashes_of(seg, pages)
        self.last_blocks_hashed += current.size
        changed = current != baseline.reshape(-1, bpp)[pages]
        # new/grown/regrown pages: baseline is stale or absent, so
        # every block must go out -- exactly the pages incremental
        # mode saves unconditionally
        changed[pages >= new_from] = True
        baseline.reshape(-1, bpp)[pages] = current
        flat = (pages[:, None] * bpp
                + np.arange(bpp, dtype=pages.dtype))[changed]
        self.last_blocks_written += len(flat)
        return flat.astype(np.int64), current[changed].copy()

    def capture(self, seq: int, taken_at: float = 0.0) -> Checkpoint:
        """Produce the block-granular delta, recording the per-capture
        ``last_*`` stats, and reset the accumulator."""
        self.last_blocks_hashed = 0
        self.last_blocks_written = 0
        self.last_page_mode_nbytes = 0
        ckpt = super().capture(seq, taken_at)
        self.last_page_mode_nbytes += SEGMENT_HEADER_BYTES * len(ckpt.geometry)
        return ckpt

    def mark_baseline(self) -> None:
        """A full checkpoint saved everything: refresh every segment's
        baseline hash vector to its current state."""
        super().mark_baseline()
        for seg in self.memory.data_segments():
            if seg.npages == 0:
                self._baseline.pop(seg.sid, None)
                continue
            base = np.empty(seg.npages * self.blocks_per_page,
                            dtype=np.uint64)
            all_pages = np.arange(seg.npages)
            base.reshape(-1, self.blocks_per_page)[:] = (
                self._hashes_of(seg, all_pages))
            self._baseline[seg.sid] = base

    def _reset_after_capture(self) -> None:
        super()._reset_after_capture()
        live = {seg.sid for seg in self.memory.data_segments()}
        for sid in [s for s in self._baseline if s not in live]:
            del self._baseline[sid]

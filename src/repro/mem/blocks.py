"""Sub-page block-version state for differential (dcp) checkpoints.

A :class:`BlockTable` shadows a segment's
:class:`~repro.mem.pagetable.PageTable` at a finer granularity: every
page is split into ``blocks_per_page`` fixed-size blocks, and the
address-space write paths mark exactly the blocks a store covered with
the same monotonic write version the page table records for the page.

The invariant the dcp checkpointer and chain replay rely on: **a page's
version always equals the maximum version over its blocks**, because
every write stamps at least one covered block with the same version it
stamps the page (a byte range intersects at least one block of every
page it touches).  Restoring the saved blocks of a dirty page and
taking the per-page maximum therefore reproduces the page-granular
state signature exactly.

Like the page table, the visible ``versions`` array is a view into an
over-allocated backing buffer with a high-water mark, so heap
brk/sbrk churn costs amortized O(1) per block and shrink-then-regrow
never resurfaces stale state.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MappingError


class BlockTable:
    """Block-granular write-version state for one segment."""

    __slots__ = ("npages", "page_size", "block_size", "blocks_per_page",
                 "versions", "_capacity", "_versions_buf", "_hwm")

    def __init__(self, npages: int, page_size: int, block_size: int):
        if npages < 0:
            raise MappingError(f"negative page count: {npages}")
        if block_size < 1 or page_size % block_size:
            raise MappingError(
                f"block size {block_size} must be >= 1 and divide the "
                f"page size {page_size}")
        self.npages = npages
        self.page_size = page_size
        self.block_size = block_size
        self.blocks_per_page = page_size // block_size
        self._allocate(npages, preserve=npages)

    @property
    def nblocks(self) -> int:
        """Blocks currently exposed (``npages * blocks_per_page``)."""
        return self.npages * self.blocks_per_page

    def _allocate(self, capacity_pages: int, preserve: int = 0) -> None:
        """(Re)allocate the backing buffer at ``capacity_pages`` pages,
        carrying over the first ``preserve`` pages of live state."""
        bpp = self.blocks_per_page
        versions = np.zeros(capacity_pages * bpp, dtype=np.uint64)
        if preserve and getattr(self, "_versions_buf", None) is not None:
            versions[:preserve * bpp] = self._versions_buf[:preserve * bpp]
        self._capacity = capacity_pages
        self._versions_buf = versions
        #: high-water mark in *pages*: buffer pages at index >= _hwm have
        #: never held state since this allocation
        self._hwm = preserve
        self._reslice()

    def _reslice(self) -> None:
        self.versions = self._versions_buf[:self.nblocks]

    # -- write marking ---------------------------------------------------------

    def mark_pages(self, lo: int, hi: int, version: int) -> None:
        """A store covering whole pages ``[lo, hi)``: every block of
        every covered page gets ``version``."""
        if not 0 <= lo <= hi <= self.npages:
            raise MappingError(
                f"page range [{lo}, {hi}) outside table of "
                f"{self.npages} pages")
        bpp = self.blocks_per_page
        self.versions[lo * bpp:hi * bpp] = version

    def mark_bytes(self, lo: int, hi: int, version: int) -> None:
        """A store covering segment byte offsets ``[lo, hi)``: only the
        blocks the byte range actually intersects get ``version`` --
        the sub-page precision dcp checkpoints harvest."""
        if not (0 <= lo < hi <= self.npages * self.page_size):
            raise MappingError(
                f"byte range [{lo}, {hi}) outside table of "
                f"{self.npages * self.page_size} bytes")
        bs = self.block_size
        self.versions[lo // bs:(hi - 1) // bs + 1] = version

    # -- growth / shrink -------------------------------------------------------

    def resize(self, npages: int) -> None:
        """Mirror :meth:`PageTable.resize`: new pages arrive at version 0
        (zero-filled by the kernel); regrown pages within capacity are
        wiped only up to the high-water mark."""
        if npages < 0:
            raise MappingError(f"negative page count: {npages}")
        old = self.npages
        if npages == old:
            return
        bpp = self.blocks_per_page
        if npages > self._capacity:
            self._allocate(max(npages, 2 * self._capacity, 8), preserve=old)
        elif npages > old:
            wipe_hi = min(npages, self._hwm)
            if old < wipe_hi:
                self._versions_buf[old * bpp:wipe_hi * bpp] = 0
        if npages > self._hwm:
            self._hwm = npages
        self.npages = npages
        self._reslice()

    def recycle(self) -> None:
        """Reset to a freshly constructed table's state (the region
        arena's segment-reuse path); keeps the over-allocated buffer."""
        if self._hwm:
            self._versions_buf[:self._hwm * self.blocks_per_page] = 0
        self._hwm = self.npages
        # the view may have been narrowed by resize since the last
        # reslice of a grown buffer
        self._reslice()

    def split(self, at: int) -> "BlockTable":
        """Split off pages ``[at, npages)`` into a new table (partial
        munmap); this table keeps ``[0, at)``."""
        if not (0 <= at <= self.npages):
            raise MappingError(
                f"split at page {at} outside table of {self.npages} pages")
        tail = BlockTable(self.npages - at, self.page_size, self.block_size)
        tail.versions[:] = self.versions[at * self.blocks_per_page:]
        self.resize(at)
        return tail

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<BlockTable npages={self.npages} "
                f"block_size={self.block_size} nblocks={self.nblocks}>")

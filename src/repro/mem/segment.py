"""Memory segments: contiguous page-aligned regions of the address space.

The paper partitions a UNIX process's state into text, data (initialized
+ uninitialized/BSS), heap, stack, and mmap'ed memory.  The *data memory*
-- everything except text and stack -- is what the instrumentation
library protects and what dominates checkpoint size.
"""

from __future__ import annotations

import enum
import itertools
from typing import Optional

from repro.errors import MappingError
from repro.mem.blocks import BlockTable
from repro.mem.pagetable import PageTable
from repro.units import is_power_of_two


class SegmentKind(enum.Enum):
    """What role a segment plays in the process image."""

    TEXT = "text"
    DATA = "data"        # initialized data
    BSS = "bss"          # uninitialized data, zero-filled at load
    HEAP = "heap"
    STACK = "stack"
    MMAP = "mmap"

    @property
    def is_data_memory(self) -> bool:
        """True for the segments the paper checkpoints (section 4.1): the
        data region -- initialized data, BSS, heap and mmap'ed memory."""
        return self in (SegmentKind.DATA, SegmentKind.BSS,
                        SegmentKind.HEAP, SegmentKind.MMAP)


_segment_ids = itertools.count(1)


class Segment:
    """A page-aligned contiguous mapping with its own :class:`PageTable`.

    ``base`` and ``size`` are bytes; ``size`` must be a whole number of
    pages.  Segments carry a process-unique ``sid`` so checkpoints can
    refer to them stably across growth and remapping.
    """

    __slots__ = ("sid", "kind", "base", "page_size", "pages", "name",
                 "blocks")

    def __init__(self, kind: SegmentKind, base: int, size: int,
                 page_size: int, name: str = "", sid: Optional[int] = None):
        if not is_power_of_two(page_size):
            raise MappingError(f"bad page size {page_size}")
        if base % page_size:
            raise MappingError(f"segment base {base:#x} not page-aligned")
        if size < 0 or size % page_size:
            raise MappingError(f"segment size {size} not a whole page count")
        self.sid = next(_segment_ids) if sid is None else sid
        self.kind = kind
        self.base = base
        self.page_size = page_size
        self.pages = PageTable(size // page_size)
        self.name = name or kind.value
        #: sub-page block-version state (dcp checkpoint mode); None until
        #: :meth:`enable_blocks` / AddressSpace.enable_block_tracking
        self.blocks: Optional[BlockTable] = None

    def enable_blocks(self, block_size: int) -> None:
        """Attach block-granular write tracking at ``block_size`` bytes
        per block (idempotent for the same size)."""
        if self.blocks is not None:
            if self.blocks.block_size != block_size:
                raise MappingError(
                    f"segment {self.name!r} already tracks "
                    f"{self.blocks.block_size}-byte blocks")
            return
        self.blocks = BlockTable(self.npages, self.page_size, block_size)

    # -- geometry -------------------------------------------------------------

    @property
    def size(self) -> int:
        """Current size in bytes."""
        return self.pages.npages * self.page_size

    @property
    def end(self) -> int:
        """One past the last mapped byte."""
        return self.base + self.size

    @property
    def npages(self) -> int:
        return self.pages.npages

    def overlaps(self, base: int, size: int) -> bool:
        """True when ``[base, base+size)`` intersects this mapping."""
        return base < self.end and self.base < base + size

    def page_range(self, addr: int, size: int) -> tuple[int, int]:
        """Page index range ``[lo, hi)`` covering bytes ``[addr, addr+size)``."""
        if size <= 0:
            raise MappingError(f"non-positive access size {size}")
        if not (self.base <= addr and addr + size <= self.end):
            raise MappingError(
                f"byte range [{addr:#x}, {addr + size:#x}) outside segment "
                f"{self.name!r} [{self.base:#x}, {self.end:#x})")
        lo = (addr - self.base) // self.page_size
        hi = (addr + size - 1 - self.base) // self.page_size + 1
        return lo, hi

    # -- arena reuse ----------------------------------------------------------

    def rebind(self, base: int, name: str) -> None:
        """Reincarnate a parked segment as a brand-new mapping at ``base``
        (the region arena's reuse path).

        A fresh ``sid`` is minted from the same counter a new
        :class:`Segment` would draw from, so everything keyed by sid --
        incremental-checkpoint deltas, replayed page versions, integrity
        digests -- sees exactly what a from-scratch construction would
        have produced; only the host-side allocations are saved.  The
        page table is recycled to its fresh all-clean state.
        """
        if base % self.page_size:
            raise MappingError(f"segment base {base:#x} not page-aligned")
        self.sid = next(_segment_ids)
        self.base = base
        self.name = name
        self.pages.recycle()
        if self.blocks is not None:
            self.blocks.recycle()

    # -- growth ---------------------------------------------------------------

    def resize_pages(self, npages: int) -> None:
        """Grow/shrink in place (heap via brk, stack growth).  New pages
        arrive clean at version 0, like the kernel's fresh pages."""
        self.pages.resize(npages)
        if self.blocks is not None:
            self.blocks.resize(npages)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Segment #{self.sid} {self.name!r} {self.kind.value} "
                f"[{self.base:#x}, {self.end:#x}) {self.npages}p>")

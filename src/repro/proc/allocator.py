"""A libc-style dynamic-memory allocator on top of the simulated process.

The paper (section 4.1) notes that dynamic-memory behaviour depends on
the compiler: *"The Intel Fortran77 compiler allocates dynamic memory to
the heap, while the Intel Fortran90 compiler uses both the heap and the
mmap memory areas."*  The allocator reproduces both personalities:

- :attr:`AllocStyle.F77` -- everything goes on the heap (``sbrk``);
- :attr:`AllocStyle.F90` -- requests at or above ``mmap_threshold`` get
  their own mmap'ed region (glibc's M_MMAP_THRESHOLD behaviour), the
  rest go on the heap.

The heap side is a first-fit free list with coalescing and optional
top-of-heap trimming, so long-running workloads like Sage exhibit the
varying footprint the paper reports (average < maximum in Table 2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import AllocationError
from repro.mem import Segment
from repro.proc.process import Process
from repro.units import KiB, page_align_up

#: glibc default M_MMAP_THRESHOLD
DEFAULT_MMAP_THRESHOLD: int = 128 * KiB

_ALIGN = 16


class AllocStyle(enum.Enum):
    """Which memory areas dynamic allocations use."""

    F77 = "fortran77"   # heap only
    F90 = "fortran90"   # heap + mmap for large blocks


@dataclass
class Block:
    """A live allocation."""

    addr: int
    size: int            # usable bytes requested (rounded to alignment)
    via_mmap: bool
    segment: Optional[Segment] = None  # set for mmap blocks
    freed: bool = field(default=False, compare=False)

    @property
    def end(self) -> int:
        return self.addr + self.size


class Allocator:
    """First-fit heap allocator + mmap for large blocks.

    Not thread-safe and not trying to be clever -- the goal is realistic
    *address-space behaviour* (growth, reuse, fragmentation, unmapping),
    not allocator micro-performance.
    """

    def __init__(self, process: Process,
                 style: AllocStyle = AllocStyle.F90,
                 mmap_threshold: int = DEFAULT_MMAP_THRESHOLD,
                 trim_threshold: int = 1 * 1024 * KiB,
                 min_heap_grow: int = 256 * KiB):
        self.process = process
        self.style = style
        self.mmap_threshold = mmap_threshold
        self.trim_threshold = trim_threshold
        self.min_heap_grow = min_heap_grow
        #: free heap ranges as (addr, size), kept sorted and coalesced
        self._free: list[tuple[int, int]] = []
        #: top of the allocated heap region (== brk)
        self.live_bytes = 0
        self.peak_live_bytes = 0
        self.n_mallocs = 0
        self.n_frees = 0

    # -- public API -------------------------------------------------------------

    def malloc(self, size: int) -> Block:
        """Allocate ``size`` bytes; returns a :class:`Block`."""
        if size <= 0:
            raise AllocationError(f"malloc of non-positive size {size}")
        size = -(-size // _ALIGN) * _ALIGN
        self.n_mallocs += 1
        if self.style is AllocStyle.F90 and size >= self.mmap_threshold:
            seg = self.process.mmap(size, name=f"malloc-{self.n_mallocs}")
            block = Block(addr=seg.base, size=size, via_mmap=True, segment=seg)
        else:
            block = Block(addr=self._heap_alloc(size), size=size, via_mmap=False)
        self.live_bytes += size
        self.peak_live_bytes = max(self.peak_live_bytes, self.live_bytes)
        return block

    def free(self, block: Block) -> None:
        """Release a block.  mmap blocks are unmapped immediately; heap
        blocks return to the free list (coalesced), and the heap is
        trimmed when the top free range exceeds ``trim_threshold``."""
        if block.freed:
            raise AllocationError(f"double free of block at {block.addr:#x}")
        block.freed = True
        self.n_frees += 1
        self.live_bytes -= block.size
        if block.via_mmap:
            assert block.segment is not None
            self.process.munmap(block.segment.base, block.segment.size)
            return
        self._heap_free(block.addr, block.size)
        self._maybe_trim()

    # -- heap internals ----------------------------------------------------------

    def _heap_alloc(self, size: int) -> int:
        # first fit
        for i, (addr, free_size) in enumerate(self._free):
            if free_size >= size:
                if free_size == size:
                    self._free.pop(i)
                else:
                    self._free[i] = (addr + size, free_size - size)
                return addr
        # grow the heap
        grow = page_align_up(max(size, self.min_heap_grow),
                             self.process.memory.page_size)
        old_brk = self.process.sbrk(grow)
        if grow > size:
            self._heap_free(old_brk + size, grow - size)
        return old_brk

    def _heap_free(self, addr: int, size: int) -> None:
        self._free.append((addr, size))
        self._free.sort()
        merged: list[tuple[int, int]] = []
        for a, s in self._free:
            if merged and merged[-1][0] + merged[-1][1] == a:
                merged[-1] = (merged[-1][0], merged[-1][1] + s)
            else:
                merged.append((a, s))
        self._free = merged

    def _maybe_trim(self) -> None:
        if not self._free:
            return
        top_addr, top_size = self._free[-1]
        brk = self.process.memory.brk
        if top_addr + top_size == brk and top_size >= self.trim_threshold:
            self.process.sbrk(-top_size)
            self._free.pop()

    # -- introspection -----------------------------------------------------------

    def free_bytes(self) -> int:
        """Bytes currently on the heap free list."""
        return sum(s for _, s in self._free)

    def check_invariants(self) -> None:
        """Assert free-list sanity (sorted, coalesced, within the heap)."""
        heap = self.process.memory.heap
        prev_end = heap.base
        for addr, size in self._free:
            if size <= 0:
                raise AllocationError(f"empty free range at {addr:#x}")
            if addr < prev_end:
                raise AllocationError("free list overlapping or unsorted")
            if addr + size > heap.end:
                raise AllocationError("free range outside the heap")
            prev_end = addr + size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        from repro.units import fmt_bytes
        return (f"<Allocator {self.style.value} live={fmt_bytes(self.live_bytes)} "
                f"free={fmt_bytes(self.free_bytes())}>")

"""Logical memory regions: the arrays a workload sweeps over.

A :class:`Region` maps a contiguous *logical* page index space onto one
or more physical extents (segment + page range).  Compute phases address
the region by *visit index*; visit ``v`` touches logical page
``v mod N``, so a phase that performs ``passes * N`` visits sweeps the
region cyclically -- re-dirtying pages across timeslices while the dirty
bit deduplicates revisits within one timeslice.  That is the mechanism
behind the paper's declining IB-versus-timeslice curves.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable

from repro.errors import ConfigurationError
from repro.mem import AddressSpace, Segment
from repro.proc.allocator import Block


@dataclass(frozen=True)
class Extent:
    """A physical piece of a region: pages ``[lo, hi)`` of ``segment``."""

    segment: Segment
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not (0 <= self.lo < self.hi <= self.segment.npages):
            raise ConfigurationError(
                f"extent [{self.lo}, {self.hi}) outside segment "
                f"{self.segment.name!r} of {self.segment.npages} pages")

    @property
    def npages(self) -> int:
        return self.hi - self.lo


class Region:
    """A logical page space backed by physical extents."""

    def __init__(self, name: str, extents: Iterable[Extent]):
        self.name = name
        self.extents = list(extents)
        if not self.extents:
            raise ConfigurationError(f"region {self.name!r} has no extents")
        #: logical start offset of each extent plus a final total -- the
        #: touch path bisects into this instead of walking every extent
        offsets = [0]
        nbytes = 0
        for e in self.extents:
            offsets.append(offsets[-1] + e.npages)
            nbytes += e.npages * e.segment.page_size
        self._offsets = offsets
        self.npages = offsets[-1]
        #: bytes the extents cover (the halo loop reads this per receive)
        self.nbytes = nbytes

    # -- constructors ---------------------------------------------------------------

    @classmethod
    def from_blocks(cls, name: str, memory: AddressSpace,
                    blocks: Iterable[Block]) -> "Region":
        """Region over allocator blocks (heap or mmap), page-granular:
        each block contributes the pages it covers."""
        extents = []
        for block in blocks:
            seg = memory.find_segment(block.addr)
            if seg is None:
                raise ConfigurationError(
                    f"block at {block.addr:#x} is not mapped")
            lo, hi = seg.page_range(block.addr, block.size)
            extents.append(Extent(seg, lo, hi))
        return cls(name, extents)

    # -- geometry --------------------------------------------------------------------

    def base_addr(self) -> int:
        """Address of the first byte of the first extent (for receives)."""
        e = self.extents[0]
        return e.segment.base + e.lo * e.segment.page_size

    # -- writes ----------------------------------------------------------------------

    def touch_all(self, memory: AddressSpace) -> int:
        """CPU-write every page once; returns faults taken."""
        faults = 0
        write = memory.cpu_write_pages
        for e in self.extents:
            faults += write(e.segment, e.lo, e.hi).faults
        return faults

    def touch_visits(self, memory: AddressSpace, v0: int, v1: int) -> int:
        """CPU-write the pages covered by visit indices ``[v0, v1)``.

        Visits map to logical pages modulo the region size; a span of
        ``>= npages`` visits touches everything.  Returns faults taken.
        """
        if v1 < v0:
            raise ConfigurationError(f"bad visit range [{v0}, {v1})")
        if v1 == v0:
            return 0
        if v1 - v0 >= self.npages:
            return self.touch_all(memory)
        a = v0 % self.npages
        b = a + (v1 - v0)
        if b <= self.npages:
            return self._touch_logical(memory, a, b)
        return (self._touch_logical(memory, a, self.npages)
                + self._touch_logical(memory, 0, b - self.npages))

    def _touch_logical(self, memory: AddressSpace, lo: int, hi: int) -> int:
        """Write logical page range ``[lo, hi)`` (no wrap-around).

        Bisects to the first overlapping extent, then walks only the
        extents the range actually covers -- O(log E + overlap) instead
        of O(E) per touch."""
        faults = 0
        offsets = self._offsets
        extents = self.extents
        write = memory.cpu_write_pages
        i = bisect_right(offsets, lo) - 1
        n = len(extents)
        while i < n:
            off = offsets[i]
            if off >= hi:
                break
            e = extents[i]
            e_lo = lo - off if lo > off else 0
            e_hi = hi - off
            if e_hi > e.npages:
                e_hi = e.npages
            faults += write(e.segment, e.lo + e_lo, e.lo + e_hi).faults
            i += 1
        return faults

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Region {self.name!r} npages={self.npages} extents={len(self.extents)}>"

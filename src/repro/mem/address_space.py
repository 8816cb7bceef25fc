"""The simulated process address space.

Reproduces the UNIX memory model of the paper's section 4.1: text, data,
BSS, a heap grown by ``brk``/``sbrk``, a stack, and mmap'ed regions
created/destroyed at run time.  CPU stores go through the protection
check (faulting path); NIC DMA stores bypass it.

The address space knows nothing about time -- it reports faults to
listeners (the dirty-page tracker) which do the accounting.
"""

from __future__ import annotations

from bisect import bisect_right
from hashlib import sha256
from typing import Callable, Iterator, NamedTuple, Optional

from repro.errors import MappingError, SegmentationFault
from repro.mem.layout import Layout
from repro.mem.segment import Segment, SegmentKind
from repro.units import page_align_up


class WriteResult(NamedTuple):
    """Outcome of one store operation.  (A NamedTuple, not a dataclass:
    one is built per store and the compute phases issue ~10^5 stores per
    simulated second at full scale.)"""

    pages: int     #: pages covered by the store
    faults: int    #: write-protection faults taken (CPU stores only)
    missed: int    #: pages modified without being recorded (DMA stores only)


#: fault listener: ``(segment, lo_page, hi_page, nfaults) -> None``
FaultListener = Callable[[Segment, int, int, int], None]
#: mapping listener: ``(segment) -> None``
MapListener = Callable[[Segment], None]


class AddressSpace:
    """Segments + page tables + the write paths.

    Parameters
    ----------
    layout:
        Virtual-address layout (page size lives here).
    data_size, bss_size:
        Sizes of the initialized and uninitialized data segments, rounded
        up to whole pages (set at "compile time" by the workload).
    stack_size:
        Initial stack mapping.  The paper measured stacks under 42 KB.
    """

    def __init__(self, layout: Optional[Layout] = None, *,
                 data_size: int = 0, bss_size: int = 0,
                 stack_size: int = 64 * 1024):
        self.layout = layout or Layout()
        ps = self.layout.page_size
        self._version = 0

        self.text = Segment(SegmentKind.TEXT, self.layout.text_base,
                            page_align_up(self.layout.text_size, ps), ps)
        self.data = Segment(SegmentKind.DATA, self.layout.data_base,
                            page_align_up(data_size, ps), ps)
        self.bss = Segment(SegmentKind.BSS, self.data.end,
                           page_align_up(bss_size, ps), ps)
        # the heap starts empty, immediately after the BSS
        self.heap = Segment(SegmentKind.HEAP, self.bss.end, 0, ps)
        stack_size = page_align_up(stack_size, ps)
        if stack_size > self.layout.max_stack:
            raise MappingError(
                f"stack size {stack_size} exceeds limit {self.layout.max_stack}")
        self.stack = Segment(SegmentKind.STACK, self.layout.stack_top - stack_size,
                             stack_size, ps)

        #: the segments fixed for the life of the space, in lookup order
        self._fixed = (self.text, self.data, self.bss, self.heap, self.stack)
        #: mmap'ed segments, keyed by base address
        self._mmaps: dict[int, Segment] = {}
        #: sorted mmap bases -- the lookup index :meth:`find_segment`
        #: bisects; rebuilt after any mmap/munmap
        self._mmap_bases: Optional[list[int]] = None
        self._mmap_cursor = self.layout.mmap_base
        #: region arena: fully-unmapped segments parked by page count for
        #: reuse by the next same-size mmap (the per-iteration temp-region
        #: churn maps/unmaps an identical pattern every iteration).  A
        #: reused segment is indistinguishable from a fresh one -- new
        #: sid, new name, recycled page table -- it just skips the host
        #: allocations.  Keyed npages -> stack of parked segments.
        self._arena: dict[int, list[Segment]] = {}
        #: parked segments across all sizes (bounds host memory pinned
        #: by the arena)
        self._arena_count = 0
        self._arena_cap = 32

        self.fault_listeners: list[FaultListener] = []
        self.map_listeners: list[MapListener] = []
        self.unmap_listeners: list[MapListener] = []
        #: cached data-memory segment list (the alarm sweep walks it four
        #: times per timeslice); rebuilt after any mmap/munmap
        self._data_cache: Optional[list[Segment]] = None
        #: last segment a lookup resolved to -- stores stream to the same
        #: region, so this hits almost always; cleared on unmap
        self._last_seg: Optional[Segment] = None
        #: cached (total_pages, total_bytes) over the data segments;
        #: invalidated on map/unmap and on sbrk (heap size changes)
        self._data_totals: Optional[tuple[int, int]] = None
        #: data segments in state-digest ``(kind, base)`` order, and
        #: segment -> (leaf, record) of its last digest; both dropped on
        #: mmap/munmap, which is also the only way a base can change
        self._digest_order: Optional[list[Segment]] = None
        self._digest_records: dict[Segment, tuple[bytes, bytes]] = {}
        #: deepest stack page ever written (index within the stack
        #: segment); None until the first stack write.  The stack grows
        #: down from stack_top, so depth = (npages - lowest index) pages.
        self._stack_low_page: Optional[int] = None
        #: called with (old_npages, new_npages) on every brk/sbrk; the
        #: incremental checkpointer uses it to notice shrink-then-regrow
        self.heap_resize_listeners: list[Callable[[int, int], None]] = []
        #: sub-page block granularity (bytes) when dcp tracking is on;
        #: None keeps the write paths block-free (the default)
        self._block_size: Optional[int] = None

    # -- basic queries -----------------------------------------------------------

    @property
    def page_size(self) -> int:
        return self.layout.page_size

    @property
    def brk(self) -> int:
        """Current program break (top of the heap)."""
        return self.heap.end

    def segments(self) -> Iterator[Segment]:
        """All mapped segments, text and stack included."""
        yield self.text
        yield self.data
        yield self.bss
        yield self.heap
        yield self.stack
        yield from self._mmaps.values()

    def data_segments(self) -> Iterator[Segment]:
        """The *data memory* of the paper: initialized data, BSS, heap,
        and mmap'ed regions -- what gets protected and checkpointed."""
        return iter(self._data_list())

    def _data_list(self) -> list[Segment]:
        cached = self._data_cache
        if cached is None:
            cached = self._data_cache = [seg for seg in self.segments()
                                         if seg.kind.is_data_memory]
        return cached

    def _invalidate_caches(self) -> None:
        self._data_cache = None
        self._mmap_bases = None
        self._last_seg = None
        self._data_totals = None
        self._digest_order = None
        self._digest_records.clear()

    def _totals(self) -> tuple[int, int]:
        totals = self._data_totals
        if totals is None:
            npages = 0
            nbytes = 0
            for seg in self._data_list():
                npages += seg.pages.npages
                nbytes += seg.size
            totals = self._data_totals = (npages, nbytes)
        return totals

    def mmap_segments(self) -> list[Segment]:
        """The mmap'ed segments, ordered by base address."""
        return [self._mmaps[b] for b in sorted(self._mmaps)]

    def find_segment(self, addr: int) -> Optional[Segment]:
        """The segment containing ``addr``, or None if unmapped.

        Checks the last segment hit, then the fixed segments, then
        bisects the sorted mmap bases: mappings never overlap, so the
        only candidate is the one with the greatest base at or below
        ``addr``."""
        last = self._last_seg
        if (last is not None and last.base <= addr
                < last.base + last.pages.npages * last.page_size):
            return last
        for seg in self._fixed:
            if seg.base <= addr < seg.base + seg.pages.npages * seg.page_size:
                self._last_seg = seg
                return seg
        bases = self._mmap_bases
        if bases is None:
            bases = self._mmap_bases = sorted(self._mmaps)
        i = bisect_right(bases, addr) - 1
        if i >= 0:
            seg = self._mmaps[bases[i]]
            if addr < seg.base + seg.pages.npages * seg.page_size:
                self._last_seg = seg
                return seg
        return None

    def data_footprint(self) -> int:
        """Bytes of mapped data memory (the paper's 'memory footprint')."""
        return self._totals()[1]

    def data_summary(self) -> tuple[int, int]:
        """``(dirty_pages, footprint_bytes)`` -- the alarm handler's read
        side.  Dirty counts are O(1) per segment (PageTable maintains
        them incrementally); the footprint comes from the totals cache."""
        dirty = 0
        for seg in self._data_list():
            dirty += seg.pages._ndirty
        return dirty, self._totals()[1]

    def reset_and_protect(self) -> int:
        """Clear dirty bits and re-arm write protection on every data
        page in one pass (the alarm handler's write side); returns the
        number of pages protected.

        Segments untouched since the last sweep (clean and still fully
        protected) are skipped via the page tables' O(1) flags; the
        returned charge count still covers every data page, exactly as
        an unconditional mprotect sweep would."""
        for seg in self._data_list():
            pages = seg.pages
            if pages._ndirty or not pages._all_protected:
                pages.reset_dirty()
                pages.protect_all()
        return self._totals()[0]

    # -- block tracking (dcp checkpoint support) --------------------------------------

    @property
    def block_size(self) -> Optional[int]:
        """Sub-page block granularity, or None when block tracking is off."""
        return self._block_size

    def enable_block_tracking(self, block_size: int) -> int:
        """Attach block-granular write-version tracking to every data
        segment (present and future); returns blocks per page.

        The write paths then stamp exactly the blocks each store covers
        with the same monotonic version the page table records, giving
        dcp checkpoints a sub-page view of what actually changed.
        Idempotent for the same block size; a second size raises.
        """
        if self._block_size is not None:
            if self._block_size != block_size:
                raise MappingError(
                    f"block tracking already enabled at "
                    f"{self._block_size} B, cannot switch to {block_size} B")
            return self.page_size // block_size
        if block_size < 1 or self.page_size % block_size:
            raise MappingError(
                f"block size {block_size} must be >= 1 and divide the "
                f"page size {self.page_size}")
        self._block_size = block_size
        for seg in self.data_segments():
            seg.enable_blocks(block_size)
        return self.page_size // block_size

    def _attach_blocks(self, seg: Segment) -> None:
        """Give a newly mapped data segment its block table when block
        tracking is on (arena-reused segments may already carry one)."""
        if (self._block_size is not None and seg.blocks is None
                and seg.kind.is_data_memory):
            seg.enable_blocks(self._block_size)

    # -- write paths ----------------------------------------------------------------

    def _next_version(self) -> int:
        self._version += 1
        return self._version

    def _resolve(self, addr: int, size: int) -> tuple[Segment, int, int]:
        """The segment a store to ``[addr, addr+size)`` lands in, plus
        the page range ``[lo, hi)`` it covers there."""
        seg = self.find_segment(addr)
        if seg is None:
            raise SegmentationFault(addr)
        if size <= 0:
            raise MappingError(f"non-positive access size {size}")
        ps = seg.page_size
        off = addr - seg.base
        if off + size > seg.pages.npages * ps:
            raise SegmentationFault(seg.end, f"store of {size} bytes at "
                                    f"{addr:#x} runs past segment {seg.name!r}")
        return seg, off // ps, (off + size - 1) // ps + 1

    def cpu_write(self, addr: int, size: int) -> WriteResult:
        """A CPU store to ``[addr, addr+size)``; takes the faulting path."""
        seg, lo, hi = self._resolve(addr, size)
        off = addr - seg.base
        return self.cpu_write_pages(seg, lo, hi, _byte_span=(off, off + size))

    def cpu_write_pages(self, seg: Segment, lo: int, hi: int,
                        _byte_span: Optional[tuple[int, int]] = None
                        ) -> WriteResult:
        """Fast path: CPU store covering pages ``[lo, hi)`` of ``seg``.

        ``_byte_span`` (segment byte offsets, set by the byte-granular
        :meth:`cpu_write` entry) narrows dcp block marking to the bytes
        actually stored; whole-page callers mark every covered block.
        """
        self._version = version = self._version + 1
        faults = seg.pages.cpu_write(lo, hi, version)
        blocks = seg.blocks
        if blocks is not None:
            if _byte_span is None:
                blocks.mark_pages(lo, hi, version)
            else:
                blocks.mark_bytes(_byte_span[0], _byte_span[1], version)
        if seg.kind is SegmentKind.STACK:
            if self._stack_low_page is None or lo < self._stack_low_page:
                self._stack_low_page = lo
        if faults and self.fault_listeners:
            for listener in self.fault_listeners:
                listener(seg, lo, hi, faults)
        return WriteResult(pages=hi - lo, faults=faults, missed=0)

    @property
    def stack_used_bytes(self) -> int:
        """Stack high-water mark: bytes from the stack top down to the
        deepest page ever written.  The paper's section 4.2 measured this
        under 42 KB for all its applications -- the justification for
        not write-protecting (or checkpoint-tracking) the stack."""
        if self._stack_low_page is None:
            return 0
        return (self.stack.npages - self._stack_low_page) * self.page_size

    def dma_write(self, addr: int, size: int) -> WriteResult:
        """A device store (NIC DMA): bypasses protection and dirty tracking."""
        seg, lo, hi = self._resolve(addr, size)
        version = self._next_version()
        missed = seg.pages.dma_write(lo, hi, version)
        blocks = seg.blocks
        if blocks is not None:
            off = addr - seg.base
            blocks.mark_bytes(off, off + size, version)
        return WriteResult(pages=hi - lo, faults=0, missed=missed)

    # -- heap (brk/sbrk) ----------------------------------------------------------------

    def sbrk(self, delta: int) -> int:
        """Grow (or shrink, ``delta < 0``) the heap; returns the *old* break.

        Like the syscall, the break moves by whole pages here (the real
        libc tracks sub-page breaks; the paper's tracker works at page
        granularity so nothing is lost).
        """
        old = self.heap.end
        new_size = self.heap.size + delta
        if new_size < 0:
            raise MappingError(f"sbrk({delta}) would shrink heap below zero")
        new_size = page_align_up(new_size, self.page_size)
        if self.heap.base + new_size > self.layout.heap_limit:
            raise MappingError(f"sbrk({delta}) exceeds heap limit")
        old_npages = self.heap.npages
        self.heap.resize_pages(new_size // self.page_size)
        # segment identity is stable, but the cached data totals are not
        self._data_totals = None
        for listener in self.heap_resize_listeners:
            listener(old_npages, self.heap.npages)
        return old

    # -- mmap/munmap ----------------------------------------------------------------

    def mmap(self, size: int, name: str = "") -> Segment:
        """Map a new anonymous region of at least ``size`` bytes; returns
        the new segment.  Listeners (the instrumentation library's mmap
        interception) are notified."""
        if size <= 0:
            raise MappingError(f"mmap of non-positive size {size}")
        size = page_align_up(size, self.page_size)
        parked = self._arena.get(size // self.page_size)
        if parked:
            # FIFO: segments come back in the order they were freed, so
            # a forward free / forward alloc iteration reproduces the
            # same address layout every time (LIFO would reverse
            # same-size groups and oscillate with period 2)
            seg = parked.pop(0)
            self._arena_count -= 1
            # prefer the segment's previous base: the steady-state
            # alloc/free pattern then sees *stable addresses* iteration
            # after iteration (the cursor scan below would drift upward)
            if self._mmap_overlap(seg.base, size) is None:
                base = seg.base
            else:
                base = self._find_mmap_gap(size)
            seg.rebind(base, name or f"mmap@{base:#x}")
        else:
            base = self._find_mmap_gap(size)
            seg = Segment(SegmentKind.MMAP, base, size, self.page_size,
                          name=name or f"mmap@{base:#x}")
        self._attach_blocks(seg)
        self._mmaps[base] = seg
        self._invalidate_caches()
        for listener in self.map_listeners:
            listener(seg)
        return seg

    def mmap_fixed(self, base: int, size: int, name: str = "") -> Segment:
        """Map an anonymous region at exactly ``base`` (MAP_FIXED); used
        by checkpoint restore to rebuild the original geometry."""
        if size <= 0:
            raise MappingError(f"mmap of non-positive size {size}")
        if base % self.page_size:
            raise MappingError(f"mmap base {base:#x} not page-aligned")
        size = page_align_up(size, self.page_size)
        if not (self.layout.mmap_base <= base
                and base + size <= self.layout.mmap_limit):
            raise MappingError(
                f"fixed mapping [{base:#x}, {base + size:#x}) outside the "
                "mmap area")
        conflict = self._mmap_overlap(base, size)
        if conflict is not None:
            raise MappingError(
                f"fixed mapping at {base:#x} overlaps {conflict!r}")
        seg = Segment(SegmentKind.MMAP, base, size, self.page_size,
                      name=name or f"mmap@{base:#x}")
        self._attach_blocks(seg)
        self._mmaps[base] = seg
        self._invalidate_caches()
        for listener in self.map_listeners:
            listener(seg)
        return seg

    def _find_mmap_gap(self, size: int) -> int:
        """First-fit scan of the mmap area from the cursor, wrapping once."""
        for start in (self._mmap_cursor, self.layout.mmap_base):
            base = start
            while base + size <= self.layout.mmap_limit:
                conflict = self._mmap_overlap(base, size)
                if conflict is None:
                    self._mmap_cursor = base + size
                    return base
                base = conflict.end
        raise MappingError(f"mmap area exhausted for request of {size} bytes")

    def _mmap_overlap(self, base: int, size: int) -> Optional[Segment]:
        for seg in self._mmaps.values():
            if seg.overlaps(base, size):
                return seg
        return None

    def munmap(self, addr: int, size: int) -> None:
        """Unmap ``[addr, addr+size)``.

        The range must lie entirely within a single mapped mmap segment
        (partial unmaps split the segment, like the real syscall).
        """
        if size <= 0:
            raise MappingError(f"munmap of non-positive size {size}")
        if addr % self.page_size:
            raise MappingError(f"munmap address {addr:#x} not page-aligned")
        size = page_align_up(size, self.page_size)
        seg = self._mmaps.get(addr)
        if seg is None or addr + size > seg.end:
            seg = next((s for s in self._mmaps.values()
                        if s.base <= addr and addr + size <= s.end), None)
        if seg is None:
            raise MappingError(
                f"munmap range [{addr:#x}, {addr + size:#x}) is not a mapped "
                "sub-range of any mmap segment")
        del self._mmaps[seg.base]
        self._invalidate_caches()
        for listener in self.unmap_listeners:
            listener(seg)

        if addr == seg.base and addr + size == seg.end:
            # whole-segment unmap: park the host object for arena reuse
            # by the next same-size mmap (no remainder to re-map)
            self._park(seg)
            return

        # keep the head and/or tail remainders mapped (with their page
        # state intact -- partial munmap must not forget surviving content)
        orig_end = seg.end
        if addr > seg.base:
            head_pages = (addr - seg.base) // self.page_size
            mid_table = seg.pages.split(head_pages)  # seg keeps the head
            mid_blocks = (seg.blocks.split(head_pages)
                          if seg.blocks is not None else None)
            self._mmaps[seg.base] = seg
            self._invalidate_caches()
        else:
            mid_table = seg.pages
            mid_blocks = seg.blocks
        if addr + size < orig_end:
            tail_base = addr + size
            tail_table = mid_table.split(size // self.page_size)
            tail = Segment(SegmentKind.MMAP, tail_base, orig_end - tail_base,
                           self.page_size, name=f"{seg.name}+tail")
            tail.pages = tail_table
            if mid_blocks is not None:
                tail.blocks = mid_blocks.split(size // self.page_size)
            self._mmaps[tail_base] = tail
            self._invalidate_caches()
            for listener in self.map_listeners:
                listener(tail)

    def _park(self, seg: Segment) -> None:
        """Stash a fully-unmapped segment for reuse by a same-size mmap.

        The arena is capped so pathological unmap streams cannot pin
        unbounded host memory."""
        if self._arena_count >= self._arena_cap:
            return
        self._arena.setdefault(seg.npages, []).append(seg)
        self._arena_count += 1

    # -- protection / dirty state (tracker support) ----------------------------------

    def protect_data(self) -> int:
        """Write-protect all data-memory pages; returns pages protected."""
        total = 0
        for seg in self.data_segments():
            seg.pages.protect_all()
            total += seg.npages
        return total

    def unprotect_data(self) -> None:
        """Drop write protection from every data-memory page."""
        for seg in self.data_segments():
            seg.pages.unprotect_all()

    def reset_dirty(self) -> None:
        """Clear the dirty bits of every data segment (alarm reset)."""
        for seg in self.data_segments():
            seg.pages.reset_dirty()

    def dirty_pages(self) -> int:
        """Dirty pages across currently mapped data segments -- the IWS in
        pages.  Pages of segments unmapped since the last reset are gone
        (the paper's memory-exclusion behaviour)."""
        return sum(seg.pages.dirty_count() for seg in self.data_segments())

    # -- state digest (for checkpoint verification) ------------------------------------

    def state_digest(self) -> bytes:
        """Fixed-size sha256 digest of data-memory geometry and page
        versions.

        sha256 over one record per data segment, segments in ``(kind,
        base)`` order: ``f"{kind}|{base}|{size}|"`` followed by the
        segment's leaf, the sha256 of its page versions
        (:meth:`PageTable.leaf`).  Segments count by position, not by
        segment id, so a *restored* address space (whose segments are
        new objects) digests equal to the original at checkpoint time:
        equal digests mean identical data memory (up to a sha256
        collision).

        Leaves are cached by the page tables and dropped by every write,
        so a digest rehashes only the segments changed since the last
        one; an unchanged segment costs one identity check.
        """
        order = self._digest_order
        if order is None:
            order = self._digest_order = sorted(
                self._data_list(), key=lambda seg: (seg.kind.value, seg.base))
        records = self._digest_records
        h = sha256()
        for seg in order:
            leaf = seg.pages.leaf()
            record = records.get(seg)
            if record is None or record[0] is not leaf:
                record = records[seg] = (
                    leaf, f"{seg.kind.value}|{seg.base}|{seg.size}|".encode()
                    + leaf)
            h.update(record[1])
        return h.digest()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        from repro.units import fmt_bytes
        return (f"<AddressSpace data={fmt_bytes(self.data_footprint())} "
                f"mmaps={len(self._mmaps)} brk={self.brk:#x}>")

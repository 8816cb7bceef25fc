"""Differential property test: the segment lookup index is never stale.

:meth:`AddressSpace.find_segment` answers from the last segment hit,
the five fixed segments, or a bisection of the sorted mmap bases, which
is cached until the next mmap or munmap.  These tests drive random
mapping histories -- mmap, MAP_FIXED maps, whole munmaps, partial
munmaps that keep a head, a tail or both, same-size re-mmaps through
the region arena, and brk grow/shrink -- and after every step compare
``find_segment`` with a linear scan over :meth:`AddressSpace.segments`
at every segment's edges (first byte, last byte, one past the end, one
before the base) and at random addresses, unmapped gaps included.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MappingError
from repro.mem import AddressSpace, Layout

PS = 4096
LAYOUT = Layout(page_size=PS)
#: the part of the mmap area the histories use (keeps random probes dense)
WINDOW = 64 * PS
OPS = ("mmap", "mmap_fixed", "munmap", "munmap_head", "munmap_tail",
       "munmap_middle", "remap_same", "grow_heap", "shrink_heap")


def scan(asp: AddressSpace, addr: int):
    """The lookup with no index: the first segment containing ``addr``."""
    return next((seg for seg in asp.segments()
                 if seg.base <= addr < seg.end), None)


def _step(data, asp):
    op = data.draw(st.sampled_from(OPS))
    mmaps = asp.mmap_segments()
    if op == "mmap":
        asp.mmap(data.draw(st.integers(1, 4)) * PS)
    elif op == "mmap_fixed":
        base = LAYOUT.mmap_base + data.draw(st.integers(0, 60)) * PS
        try:
            asp.mmap_fixed(base, data.draw(st.integers(1, 4)) * PS)
        except MappingError:
            pass  # overlaps a live mapping: refused, nothing changes
    elif op == "munmap" and mmaps:
        seg = data.draw(st.sampled_from(mmaps))
        asp.munmap(seg.base, seg.size)
    elif op == "munmap_head" and mmaps:
        # unmap a leading part; the tail stays mapped
        seg = data.draw(st.sampled_from(mmaps))
        if seg.npages > 1:
            asp.munmap(seg.base,
                       data.draw(st.integers(1, seg.npages - 1)) * PS)
    elif op == "munmap_tail" and mmaps:
        # unmap a trailing part; the head stays mapped
        seg = data.draw(st.sampled_from(mmaps))
        if seg.npages > 1:
            keep = data.draw(st.integers(1, seg.npages - 1))
            asp.munmap(seg.base + keep * PS, (seg.npages - keep) * PS)
    elif op == "munmap_middle" and mmaps:
        seg = data.draw(st.sampled_from(mmaps))
        if seg.npages > 2:
            lo = data.draw(st.integers(1, seg.npages - 2))
            hi = data.draw(st.integers(lo + 1, seg.npages - 1))
            asp.munmap(seg.base + lo * PS, (hi - lo) * PS)
    elif op == "remap_same" and mmaps:
        # unmap whole, then map the same size: the arena hands the
        # parked segment back, rebound at its old base when free
        seg = data.draw(st.sampled_from(mmaps))
        size = seg.size
        asp.munmap(seg.base, size)
        asp.mmap(size)
    elif op == "grow_heap":
        asp.sbrk(data.draw(st.integers(1, 4)) * PS)
    elif op == "shrink_heap" and asp.heap.npages:
        asp.sbrk(-data.draw(st.integers(1, asp.heap.npages)) * PS)


def _probes(data, asp):
    addrs = []
    for seg in asp.segments():
        addrs += [seg.base - 1, seg.base, seg.end - 1, seg.end,
                  seg.base + seg.size // 2]
    addrs += data.draw(st.lists(
        st.integers(LAYOUT.mmap_base - PS, LAYOUT.mmap_base + WINDOW),
        max_size=8))
    addrs += [0, LAYOUT.mmap_base - 1, LAYOUT.mmap_limit]
    return addrs


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_find_segment_equals_linear_scan(data):
    asp = AddressSpace(LAYOUT, data_size=2 * PS, bss_size=PS)
    for _ in range(data.draw(st.integers(1, 25))):
        _step(data, asp)
        # probing after every step keeps the last-hit slot and the
        # mmap index warm, so a mutation that fails to drop them shows
        for addr in _probes(data, asp):
            assert asp.find_segment(addr) is scan(asp, addr), hex(addr)


def test_partial_unmap_splits_are_indexed():
    """A head-and-tail split leaves two mappings the index must find on
    both sides of the hole, and nothing inside it."""
    asp = AddressSpace(LAYOUT)
    seg = asp.mmap(8 * PS)
    base = seg.base
    assert asp.find_segment(base + 3 * PS) is seg      # warm the caches
    asp.munmap(base + 2 * PS, 4 * PS)
    head = asp.find_segment(base)
    tail = asp.find_segment(base + 6 * PS)
    assert head is seg and head.end == base + 2 * PS
    assert tail is not None and tail is not head
    assert (tail.base, tail.end) == (base + 6 * PS, base + 8 * PS)
    for page in range(2, 6):
        assert asp.find_segment(base + page * PS) is None
    assert asp.find_segment(base + 8 * PS) is None

"""Unit and property tests for the heap/mmap allocator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AllocationError
from repro.mem import Layout
from repro.proc import Allocator, Process
from repro.proc.allocator import AllocStyle, DEFAULT_MMAP_THRESHOLD
from repro.sim import Engine
from repro.units import KiB, MiB

PS = 16 * KiB


def make_alloc(style=AllocStyle.F90, **kw):
    proc = Process(Engine(), layout=Layout(page_size=PS), data_size=PS)
    return Allocator(proc, style=style, **kw), proc


def test_small_allocation_goes_on_heap():
    alloc, proc = make_alloc()
    block = alloc.malloc(1024)
    assert not block.via_mmap
    assert proc.memory.find_segment(block.addr) is proc.memory.heap


def test_large_allocation_uses_mmap_in_f90():
    alloc, proc = make_alloc(AllocStyle.F90)
    block = alloc.malloc(DEFAULT_MMAP_THRESHOLD)
    assert block.via_mmap
    assert block.segment is not None
    assert len(proc.memory.mmap_segments()) == 1


def test_f77_never_uses_mmap():
    alloc, proc = make_alloc(AllocStyle.F77)
    block = alloc.malloc(4 * MiB)
    assert not block.via_mmap
    assert proc.memory.mmap_segments() == []
    assert proc.memory.heap.size >= 4 * MiB


def test_free_mmap_unmaps():
    alloc, proc = make_alloc()
    block = alloc.malloc(1 * MiB)
    alloc.free(block)
    assert proc.memory.mmap_segments() == []


def test_double_free_rejected():
    alloc, _ = make_alloc()
    block = alloc.malloc(1024)
    alloc.free(block)
    with pytest.raises(AllocationError):
        alloc.free(block)


def test_malloc_nonpositive_rejected():
    alloc, _ = make_alloc()
    with pytest.raises(AllocationError):
        alloc.malloc(0)


def test_heap_reuse_after_free():
    alloc, proc = make_alloc()
    a = alloc.malloc(4096)
    alloc.free(a)
    b = alloc.malloc(4096)
    assert b.addr == a.addr  # first fit reuses the hole
    alloc.check_invariants()


def test_free_list_coalescing():
    alloc, _ = make_alloc()
    blocks = [alloc.malloc(1024) for _ in range(4)]
    for b in blocks:
        alloc.free(b)
    alloc.check_invariants()
    # all four adjacent holes coalesce (possibly with the grow remainder)
    assert len(alloc._free) <= 2


def test_heap_trim_shrinks_brk():
    alloc, proc = make_alloc(trim_threshold=64 * KiB, min_heap_grow=PS)
    big = alloc.malloc(512 * KiB)  # large but F77-ish path? size >= threshold
    # force a heap block regardless of style
    alloc2, proc2 = make_alloc(AllocStyle.F77, trim_threshold=64 * KiB,
                               min_heap_grow=PS)
    block = alloc2.malloc(512 * KiB)
    brk_before = proc2.memory.brk
    alloc2.free(block)
    assert proc2.memory.brk < brk_before  # trimmed


def test_live_and_peak_accounting():
    alloc, _ = make_alloc()
    a = alloc.malloc(1000)
    b = alloc.malloc(2000)
    peak = alloc.peak_live_bytes
    alloc.free(a)
    assert alloc.live_bytes < peak
    assert alloc.peak_live_bytes == peak
    c = alloc.malloc(100)
    assert alloc.n_mallocs == 3 and alloc.n_frees == 1


@given(st.lists(st.tuples(st.booleans(), st.integers(min_value=1, max_value=300 * 1024)),
                min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_property_no_overlapping_live_blocks(ops):
    """Live blocks never overlap each other, regardless of the alloc/free
    interleaving; the free list stays consistent."""
    alloc, proc = make_alloc()
    live = []
    for do_free, size in ops:
        if do_free and live:
            alloc.free(live.pop(0))
        else:
            live.append(alloc.malloc(size))
        alloc.check_invariants()
    heap_blocks = sorted((b for b in live if not b.via_mmap),
                         key=lambda b: b.addr)
    for x, y in zip(heap_blocks, heap_blocks[1:]):
        assert x.end <= y.addr, "heap blocks overlap"
    mmap_blocks = [b for b in live if b.via_mmap]
    for i, x in enumerate(mmap_blocks):
        for y in mmap_blocks[i + 1:]:
            assert x.end <= y.addr or y.end <= x.addr


@given(st.lists(st.integers(min_value=1, max_value=64 * 1024),
                min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_property_free_everything_returns_heap_to_one_hole(sizes):
    alloc, proc = make_alloc(AllocStyle.F77, trim_threshold=1 << 60)
    blocks = [alloc.malloc(s) for s in sizes]
    for b in blocks:
        alloc.free(b)
    alloc.check_invariants()
    assert alloc.live_bytes == 0
    # everything freed and coalesced: exactly one hole spanning the heap
    assert len(alloc._free) == 1
    addr, size = alloc._free[0]
    assert addr == proc.memory.heap.base
    assert size == proc.memory.heap.size

"""Unit and property tests for the simulated address space."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MappingError, SegmentationFault
from repro.mem import AddressSpace, Layout, SegmentKind
from repro.units import KiB, MiB

PS = 16 * KiB


def make_space(**kw):
    kw.setdefault("data_size", 4 * PS)
    kw.setdefault("bss_size", 4 * PS)
    return AddressSpace(Layout(page_size=PS), **kw)


def test_initial_layout():
    asp = make_space()
    assert asp.data.base == asp.layout.data_base
    assert asp.bss.base == asp.data.end
    assert asp.heap.base == asp.bss.end
    assert asp.heap.size == 0
    assert asp.stack.end == asp.layout.stack_top


def test_data_footprint_counts_data_memory_only():
    asp = make_space()
    base = asp.data_footprint()
    assert base == 8 * PS  # data + bss; heap empty, no mmaps
    asp.sbrk(3 * PS)
    assert asp.data_footprint() == 11 * PS
    asp.mmap(2 * PS)
    assert asp.data_footprint() == 13 * PS
    # text and stack never count
    assert asp.text.size > 0 and asp.stack.size > 0


def test_cpu_write_to_unmapped_raises_segfault():
    asp = make_space()
    with pytest.raises(SegmentationFault):
        asp.cpu_write(0x1234, 8)  # below text


def test_cpu_write_past_segment_end_raises():
    asp = make_space()
    with pytest.raises(SegmentationFault):
        asp.cpu_write(asp.data.end - 4, 8)  # runs into bss? no: bss adjacent
    # note: data and bss are adjacent but distinct segments; a single store
    # crossing them is not a thing real programs do (linkers pad), so we
    # treat it as an error rather than splitting the access.


def test_write_and_fault_accounting():
    asp = make_space()
    asp.protect_data()
    res = asp.cpu_write(asp.data.base, 2 * PS)
    assert res.pages == 2 and res.faults == 2 and res.missed == 0
    res = asp.cpu_write(asp.data.base, 2 * PS)
    assert res.faults == 0
    assert asp.dirty_pages() == 2


def test_fault_listener_invoked():
    asp = make_space()
    events = []
    asp.fault_listeners.append(lambda seg, lo, hi, n: events.append((seg.kind, lo, hi, n)))
    asp.protect_data()
    asp.cpu_write(asp.data.base + PS, PS)
    asp.cpu_write(asp.data.base + PS, PS)  # no fault, no event
    assert events == [(SegmentKind.DATA, 1, 2, 1)]


def test_dma_write_bypasses_tracking():
    asp = make_space()
    asp.protect_data()
    res = asp.dma_write(asp.data.base, PS)
    assert res.faults == 0 and res.missed == 1
    assert asp.dirty_pages() == 0


def test_stack_writes_never_fault_when_data_protected():
    asp = make_space()
    asp.protect_data()
    res = asp.cpu_write(asp.stack.base, PS)
    assert res.faults == 0  # the stack cannot be write-protected (sec 4.2)


def test_sbrk_grow_and_shrink():
    asp = make_space()
    old = asp.sbrk(5 * PS)
    assert old == asp.bss.end
    assert asp.brk == old + 5 * PS
    asp.cpu_write(old, PS)  # heap is writable
    old2 = asp.sbrk(-2 * PS)
    assert old2 == old + 5 * PS
    assert asp.brk == old + 3 * PS
    with pytest.raises(MappingError):
        asp.sbrk(-100 * PS)


def test_sbrk_respects_heap_limit():
    asp = make_space()
    too_big = asp.layout.heap_limit - asp.heap.base + PS
    with pytest.raises(MappingError):
        asp.sbrk(too_big)


def test_mmap_and_munmap_full():
    asp = make_space()
    seg = asp.mmap(3 * PS)
    assert seg.base >= asp.layout.mmap_base
    assert seg.size == 3 * PS
    asp.cpu_write(seg.base, 3 * PS)
    asp.munmap(seg.base, 3 * PS)
    with pytest.raises(SegmentationFault):
        asp.cpu_write(seg.base, PS)


def test_mmap_size_rounded_to_pages():
    asp = make_space()
    seg = asp.mmap(100)
    assert seg.size == PS


def test_mmap_rejects_nonpositive():
    asp = make_space()
    with pytest.raises(MappingError):
        asp.mmap(0)
    with pytest.raises(MappingError):
        asp.munmap(asp.layout.mmap_base, 0)


def test_mmaps_do_not_overlap():
    asp = make_space()
    segs = [asp.mmap(2 * PS) for _ in range(10)]
    for i, a in enumerate(segs):
        for b in segs[i + 1:]:
            assert not a.overlaps(b.base, b.size)


def test_munmap_partial_head():
    asp = make_space()
    seg = asp.mmap(4 * PS)
    asp.cpu_write(seg.base, 4 * PS)
    v_before = seg.pages.versions.copy()
    asp.munmap(seg.base, 2 * PS)
    remaining = asp.mmap_segments()
    assert len(remaining) == 1
    tail = remaining[0]
    assert tail.base == seg.base + 2 * PS
    assert tail.size == 2 * PS
    assert np.array_equal(tail.pages.versions, v_before[2:])


def test_munmap_partial_tail():
    asp = make_space()
    seg = asp.mmap(4 * PS)
    asp.cpu_write(seg.base, 4 * PS)
    asp.munmap(seg.base + 2 * PS, 2 * PS)
    remaining = asp.mmap_segments()
    assert len(remaining) == 1
    assert remaining[0].base == seg.base
    assert remaining[0].size == 2 * PS


def test_munmap_middle_splits():
    asp = make_space()
    seg = asp.mmap(6 * PS)
    asp.cpu_write(seg.base, 6 * PS)
    v = seg.pages.versions.copy()
    asp.munmap(seg.base + 2 * PS, 2 * PS)
    remaining = sorted(asp.mmap_segments(), key=lambda s: s.base)
    assert [s.size for s in remaining] == [2 * PS, 2 * PS]
    assert remaining[0].base == seg.base
    assert remaining[1].base == seg.base + 4 * PS
    assert np.array_equal(remaining[1].pages.versions, v[4:])


def test_munmap_unmapped_range_rejected():
    asp = make_space()
    with pytest.raises(MappingError):
        asp.munmap(asp.layout.mmap_base, PS)
    seg = asp.mmap(2 * PS)
    with pytest.raises(MappingError):
        asp.munmap(seg.base, 3 * PS)  # runs past the mapping
    with pytest.raises(MappingError):
        asp.munmap(seg.base + 1, PS)  # unaligned


def test_map_unmap_listeners():
    asp = make_space()
    events = []
    asp.map_listeners.append(lambda s: events.append(("map", s.base)))
    asp.unmap_listeners.append(lambda s: events.append(("unmap", s.base)))
    seg = asp.mmap(2 * PS)
    asp.munmap(seg.base, 2 * PS)
    assert events == [("map", seg.base), ("unmap", seg.base)]


def test_unmapped_dirty_pages_excluded_from_iws():
    """Memory exclusion (section 4.2): dirty pages of regions unmapped
    before the alarm are not reported."""
    asp = make_space()
    asp.protect_data()
    seg = asp.mmap(4 * PS)
    seg.pages.protect_all()
    asp.cpu_write(seg.base, 4 * PS)
    assert asp.dirty_pages() == 4
    asp.munmap(seg.base, 4 * PS)
    assert asp.dirty_pages() == 0


def test_reset_dirty_spans_all_data_segments():
    asp = make_space()
    asp.protect_data()
    seg = asp.mmap(2 * PS)
    seg.pages.protect_all()
    asp.cpu_write(asp.data.base, PS)
    asp.cpu_write(seg.base, PS)
    assert asp.dirty_pages() == 2
    asp.reset_dirty()
    assert asp.dirty_pages() == 0


def test_state_digest_tracks_the_signature():
    # the restore check compares digests: equal exactly when geometry
    # and page versions are equal, whatever order the mmaps were made in
    # (segments count by position, so a restored space can match)
    a = make_space()
    b = make_space()
    d1 = a.state_digest()
    assert len(d1) == 32 and d1 == b.state_digest()
    a.cpu_write(a.data.base, PS)
    assert a.state_digest() != d1
    b.cpu_write(b.data.base, PS)
    assert a.state_digest() == b.state_digest()
    first, second = a.mmap(2 * PS), a.mmap(3 * PS)
    b.mmap_fixed(second.base, 3 * PS)
    assert a.state_digest() != b.state_digest()
    b.mmap_fixed(first.base, 2 * PS)
    assert a.state_digest() == b.state_digest()


def test_find_segment():
    asp = make_space()
    assert asp.find_segment(asp.data.base).kind == SegmentKind.DATA
    assert asp.find_segment(asp.stack.base).kind == SegmentKind.STACK
    assert asp.find_segment(0x10) is None


# -- property tests ---------------------------------------------------------------

@given(st.lists(st.tuples(st.sampled_from(["mmap", "munmap", "sbrk"]),
                          st.integers(min_value=1, max_value=8)),
                max_size=30))
@settings(max_examples=100)
def test_property_mappings_never_overlap_and_footprint_consistent(ops):
    asp = make_space()
    live: list = []
    for op, pages in ops:
        if op == "mmap":
            live.append(asp.mmap(pages * PS))
        elif op == "munmap" and live:
            seg = live.pop(0)
            asp.munmap(seg.base, seg.size)
        elif op == "sbrk":
            asp.sbrk(pages * PS)
    segs = list(asp.segments())
    for i, a in enumerate(segs):
        for b in segs[i + 1:]:
            assert not a.overlaps(b.base, b.size), (a, b)
    assert asp.data_footprint() == sum(s.size for s in asp.data_segments())


@given(st.data())
@settings(max_examples=100)
def test_property_dirty_bytes_bounded_by_footprint(data):
    asp = make_space()
    asp.sbrk(8 * PS)
    asp.protect_data()
    for _ in range(data.draw(st.integers(min_value=0, max_value=20))):
        seg = data.draw(st.sampled_from([asp.data, asp.bss, asp.heap]))
        if seg.npages == 0:
            continue
        lo = data.draw(st.integers(min_value=0, max_value=seg.npages - 1))
        hi = data.draw(st.integers(min_value=lo + 1, max_value=seg.npages))
        asp.cpu_write_pages(seg, lo, hi)
    assert 0 <= asp.dirty_pages() * PS <= asp.data_footprint()

"""Unit tests for segments and the layout."""

import pytest

from repro.errors import ConfigurationError, MappingError
from repro.mem import Layout, Segment, SegmentKind
from repro.units import KiB, MiB

PS = 16 * KiB


def test_segment_geometry():
    seg = Segment(SegmentKind.DATA, 10 * PS, 4 * PS, PS)
    assert seg.size == 4 * PS
    assert seg.end == 14 * PS
    assert seg.npages == 4
    assert seg.page_range(10 * PS, 4 * PS) == (0, 4)
    assert seg.page_range(14 * PS - 1, 1) == (3, 4)
    with pytest.raises(MappingError):
        seg.page_range(14 * PS, 1)
    with pytest.raises(MappingError):
        seg.page_range(10 * PS - 1, 1)


def test_segment_alignment_enforced():
    with pytest.raises(MappingError):
        Segment(SegmentKind.DATA, 100, 4 * PS, PS)  # unaligned base
    with pytest.raises(MappingError):
        Segment(SegmentKind.DATA, 0, 4 * PS + 1, PS)  # ragged size
    with pytest.raises(MappingError):
        Segment(SegmentKind.DATA, 0, 4 * PS, 1000)  # non-power-of-two page


def test_page_index_and_range():
    seg = Segment(SegmentKind.HEAP, 0, 8 * PS, PS)
    assert seg.page_range(PS, 1) == (1, 2)
    assert seg.page_range(PS - 1, 1) == (0, 1)
    assert seg.page_range(0, 1) == (0, 1)
    assert seg.page_range(PS - 1, 2) == (0, 2)  # straddles a boundary
    assert seg.page_range(0, 8 * PS) == (0, 8)


def test_page_range_rejects_out_of_bounds():
    seg = Segment(SegmentKind.HEAP, 0, 8 * PS, PS)
    with pytest.raises(MappingError):
        seg.page_range(0, 8 * PS + 1)
    with pytest.raises(MappingError):
        seg.page_range(0, 0)
    with pytest.raises(MappingError):
        seg.page_range(9 * PS, 1)


def test_overlaps():
    seg = Segment(SegmentKind.MMAP, 4 * PS, 4 * PS, PS)
    assert seg.overlaps(0, 5 * PS)
    assert seg.overlaps(7 * PS, PS)
    assert not seg.overlaps(0, 4 * PS)
    assert not seg.overlaps(8 * PS, PS)


def test_unique_sids():
    a = Segment(SegmentKind.MMAP, 0, PS, PS)
    b = Segment(SegmentKind.MMAP, 0, PS, PS)
    assert a.sid != b.sid


def test_data_memory_classification():
    assert SegmentKind.DATA.is_data_memory
    assert SegmentKind.BSS.is_data_memory
    assert SegmentKind.HEAP.is_data_memory
    assert SegmentKind.MMAP.is_data_memory
    assert not SegmentKind.TEXT.is_data_memory
    assert not SegmentKind.STACK.is_data_memory


def test_layout_defaults_valid():
    layout = Layout()
    # every area fits below the next: text, data/heap, mmap, stack
    assert layout.text_base + layout.text_size <= layout.data_base
    assert layout.heap_limit <= layout.mmap_base < layout.mmap_limit
    assert layout.mmap_limit <= layout.stack_top - layout.max_stack


def test_layout_rejects_unaligned():
    with pytest.raises(ConfigurationError):
        Layout(data_base=0x0500_0001)


def test_layout_rejects_page_size_not_power_of_two():
    with pytest.raises(ConfigurationError):
        Layout(page_size=3000)


def test_layout_rejects_overlapping_areas():
    with pytest.raises(ConfigurationError):
        Layout(text_base=0x0400_0000, text_size=0x0200_0000,
               data_base=0x0500_0000)
    with pytest.raises(ConfigurationError):
        Layout(heap_limit=0x30_0000_0000)  # runs into mmap area

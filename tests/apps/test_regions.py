"""Unit and property tests for logical regions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.regions import Extent, Region
from repro.errors import ConfigurationError
from repro.mem import AddressSpace, Layout
from repro.units import KiB

PS = 16 * KiB


def make_space(data_pages=8, bss_pages=8):
    return AddressSpace(Layout(page_size=PS), data_size=data_pages * PS,
                        bss_size=bss_pages * PS)


def two_extent_region(asp):
    return Region("r", [Extent(asp.data, 2, 6), Extent(asp.bss, 0, 3)])


def test_region_geometry():
    asp = make_space()
    region = two_extent_region(asp)
    assert region.npages == 7
    assert region.nbytes == 7 * PS
    assert region.base_addr() == asp.data.base + 2 * PS


def test_region_needs_extents():
    with pytest.raises(ConfigurationError):
        Region("empty", [])


def test_extent_validation():
    asp = make_space()
    with pytest.raises(ConfigurationError):
        Extent(asp.data, 5, 5)
    with pytest.raises(ConfigurationError):
        Extent(asp.data, 0, 99)


def test_touch_all_marks_every_page():
    asp = make_space()
    asp.protect_data()
    region = two_extent_region(asp)
    faults = region.touch_all(asp)
    assert faults == 7
    assert asp.dirty_pages() == 7


def test_touch_visits_subrange():
    asp = make_space()
    asp.protect_data()
    region = two_extent_region(asp)
    region.touch_visits(asp, 0, 3)  # logical pages 0..2 -> data pages 2..4
    assert list(asp.data.pages.dirty_indices()) == [2, 3, 4]
    assert asp.bss.pages.dirty_count() == 0


def test_touch_visits_across_extent_boundary():
    asp = make_space()
    asp.protect_data()
    region = two_extent_region(asp)
    region.touch_visits(asp, 3, 6)  # logical 3 -> data page 5; 4,5 -> bss 0,1
    assert list(asp.data.pages.dirty_indices()) == [5]
    assert list(asp.bss.pages.dirty_indices()) == [0, 1]


def test_touch_visits_wraparound():
    asp = make_space()
    asp.protect_data()
    region = two_extent_region(asp)
    region.touch_visits(asp, 5, 9)  # logical 5,6 then wrap 0,1
    assert list(asp.data.pages.dirty_indices()) == [2, 3]
    assert list(asp.bss.pages.dirty_indices()) == [1, 2]


def test_touch_visits_full_cycle_touches_all():
    asp = make_space()
    asp.protect_data()
    region = two_extent_region(asp)
    region.touch_visits(asp, 3, 3 + 7)
    assert asp.dirty_pages() == 7


def test_touch_visits_more_than_one_pass():
    asp = make_space()
    asp.protect_data()
    region = two_extent_region(asp)
    region.touch_visits(asp, 0, 100)
    assert asp.dirty_pages() == 7


def test_touch_visits_empty_and_invalid():
    asp = make_space()
    region = two_extent_region(asp)
    assert region.touch_visits(asp, 5, 5) == 0
    with pytest.raises(ConfigurationError):
        region.touch_visits(asp, 5, 4)


def test_from_blocks():
    from repro.proc import Allocator, Process
    from repro.sim import Engine
    proc = Process(Engine(), layout=Layout(page_size=PS), data_size=PS)
    alloc = Allocator(proc)
    blocks = [alloc.malloc(2 * PS), alloc.malloc(1 * 1024 * 1024)]
    region = Region.from_blocks("dyn", proc.memory, blocks)
    assert region.npages >= 2 + 64
    proc.memory.protect_data()
    assert region.touch_all(proc.memory) == region.npages


@given(st.integers(min_value=1, max_value=40), st.data())
@settings(max_examples=100)
def test_property_visits_match_reference_modulo_model(npages, data):
    """touch_visits agrees with a naive per-visit reference model."""
    asp = AddressSpace(Layout(page_size=PS), data_size=npages * PS)
    asp.protect_data()
    region = Region("r", [Extent(asp.data, 0, npages)])
    expected = np.zeros(npages, dtype=bool)
    for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
        v0 = data.draw(st.integers(min_value=0, max_value=3 * npages))
        span = data.draw(st.integers(min_value=0, max_value=2 * npages))
        region.touch_visits(asp, v0, v0 + span)
        for v in range(v0, v0 + span):
            expected[v % npages] = True
    assert np.array_equal(asp.data.pages.dirty, expected)

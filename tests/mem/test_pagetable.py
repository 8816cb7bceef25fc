"""Unit and property tests for the vectorized page table."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MappingError
from repro.mem import PageTable


def test_new_table_is_clean_and_unprotected():
    pt = PageTable(16)
    assert pt.dirty_count() == 0
    assert not pt.protected.any()
    assert (pt.versions == 0).all()


def test_negative_page_count_rejected():
    with pytest.raises(MappingError):
        PageTable(-1)


def test_cpu_write_unprotected_pages_no_fault():
    pt = PageTable(8)
    faults = pt.cpu_write(0, 4, version=1)
    assert faults == 0
    assert pt.dirty_count() == 0          # no fault -> not recorded as dirty
    assert (pt.versions[:4] == 1).all()   # but content changed


def test_cpu_write_protected_pages_faults_once():
    pt = PageTable(8)
    pt.protect_all()
    faults = pt.cpu_write(2, 6, version=1)
    assert faults == 4
    assert pt.dirty_count() == 4
    assert list(pt.dirty_indices()) == [2, 3, 4, 5]
    # second write to the same pages: already unprotected, no new faults
    faults = pt.cpu_write(2, 6, version=2)
    assert faults == 0
    assert pt.dirty_count() == 4


def test_partial_overlap_faults_only_new_pages():
    pt = PageTable(8)
    pt.protect_all()
    pt.cpu_write(0, 4, version=1)
    faults = pt.cpu_write(2, 6, version=2)
    assert faults == 2  # pages 4,5 were still protected
    assert pt.dirty_count() == 6


def test_reset_and_reprotect_cycle():
    """The alarm handler's sequence: count, reset, re-protect."""
    pt = PageTable(8)
    pt.protect_all()
    pt.cpu_write(0, 3, version=1)
    assert pt.dirty_count() == 3
    pt.reset_dirty()
    pt.protect_all()
    assert pt.dirty_count() == 0
    faults = pt.cpu_write(0, 3, version=2)
    assert faults == 3  # re-protected pages fault again next timeslice


def test_dma_write_bypasses_protection_and_dirty():
    pt = PageTable(8)
    pt.protect_all()
    missed = pt.dma_write(0, 4, version=1)
    assert missed == 4
    assert pt.dirty_count() == 0              # invisible to the tracker
    assert pt.protected[:4].all()             # protection still armed
    assert (pt.versions[:4] == 1).all()       # but content changed


def test_dma_write_to_already_dirty_pages_not_missed():
    pt = PageTable(8)
    pt.protect_all()
    pt.cpu_write(0, 4, version=1)  # pages now dirty
    missed = pt.dma_write(0, 4, version=2)
    assert missed == 0  # a checkpoint would save them anyway


def test_dma_write_counts_only_protected_and_clean_pages():
    """Regression: missed = protected-and-clean exactly, per the
    docstring.  Unprotected clean pages were never armed, so the tracker
    would not have caught a CPU store to them either; counting them
    overstated the DMA hazard."""
    pt = PageTable(8)
    pt.protect_all()
    pt.cpu_write(0, 2, version=1)        # pages 0,1 dirty + unprotected
    pt.protect_range(4, 6, value=False)  # pages 4,5 unprotected, clean
    missed = pt.dma_write(0, 8, version=2)
    assert missed == 4                   # pages 2,3,6,7: armed and clean
    # unarmed pages alone: nothing for the checkpoint to have missed
    pt2 = PageTable(8)
    assert pt2.dma_write(0, 8, version=1) == 0


def test_protect_range():
    pt = PageTable(8)
    pt.protect_range(2, 5)
    assert list(np.flatnonzero(pt.protected)) == [2, 3, 4]
    pt.protect_range(3, 4, value=False)
    assert list(np.flatnonzero(pt.protected)) == [2, 4]


def test_out_of_range_rejected():
    pt = PageTable(8)
    with pytest.raises(MappingError):
        pt.cpu_write(0, 9, version=1)
    with pytest.raises(MappingError):
        pt.cpu_write(-1, 4, version=1)
    with pytest.raises(MappingError):
        pt.protect_range(5, 3)


def test_resize_grow_new_pages_clean():
    pt = PageTable(4)
    pt.protect_all()
    pt.cpu_write(0, 4, version=7)
    pt.resize(8)
    assert pt.npages == 8
    assert pt.dirty_count() == 4
    assert not pt.protected[4:].any()
    assert (pt.versions[4:] == 0).all()
    assert (pt.versions[:4] == 7).all()


def test_resize_shrink_drops_tail_state():
    pt = PageTable(8)
    pt.protect_all()
    pt.cpu_write(0, 8, version=1)
    pt.resize(3)
    assert pt.npages == 3
    assert pt.dirty_count() == 3


def test_resize_noop():
    pt = PageTable(4)
    pt.resize(4)
    assert pt.npages == 4


def test_shrink_then_regrow_pages_arrive_clean():
    """Amortized backing buffers must not resurrect state dropped by a
    shrink: pages re-exposed by a later grow are unprotected, clean,
    version 0 -- exactly like kernel-fresh pages."""
    pt = PageTable(8)
    pt.protect_all()
    pt.cpu_write(0, 8, version=9)
    pt.resize(2)
    pt.resize(8)
    assert pt.dirty_count() == 2
    assert not pt.protected[2:].any()
    assert (pt.versions[2:] == 0).all()
    assert (pt.versions[:2] == 9).all()


def test_many_small_grows_preserve_state():
    """The sbrk pattern the over-allocation exists for."""
    pt = PageTable(1)
    pt.cpu_write(0, 1, version=1)
    for i in range(200):
        pt.resize(pt.npages + 3)
    assert pt.npages == 601
    assert (pt.versions[0] == 1)
    assert (pt.versions[1:] == 0).all()
    assert not pt.protected.any() and pt.dirty_count() == 0
    # views track npages exactly (no capacity slop leaks out)
    assert len(pt.protected) == len(pt.dirty) == len(pt.versions) == 601


def test_grow_to_zero_and_back():
    pt = PageTable(4)
    pt.protect_all()
    pt.resize(0)
    assert pt.npages == 0 and len(pt.protected) == 0
    pt.resize(4)
    assert not pt.protected.any()


def test_split_preserves_state_on_both_sides():
    pt = PageTable(8)
    pt.protect_all()
    pt.cpu_write(1, 7, version=3)
    tail = pt.split(4)
    assert pt.npages == 4 and tail.npages == 4
    assert list(pt.dirty_indices()) == [1, 2, 3]
    assert list(tail.dirty_indices()) == [0, 1, 2]
    assert (tail.versions[:3] == 3).all()
    assert tail.protected[3]  # page 7 never written, still protected


def test_versions_view_is_read_only():
    pt = PageTable(4)
    with pytest.raises(ValueError):
        pt.versions[0] = 1
    pt.resize(40)           # past capacity: fresh buffers, fresh view
    with pytest.raises(ValueError):
        pt.versions[0] = 1
    assert not pt.split(2).versions.flags.writeable


def test_leaf_is_cached_until_versions_change():
    pt = PageTable(4)
    leaf = pt.leaf()
    assert pt.leaf() is leaf
    pt.protect_all()
    pt.reset_dirty()
    assert pt.leaf() is leaf            # protection is not content
    pt.cpu_write(1, 2, version=5)
    assert pt.leaf() != leaf
    leaf = pt.leaf()
    pt.load_versions(np.array([0, 5, 0, 0], dtype=np.uint64))
    assert pt.leaf() is not leaf and pt.leaf() == leaf
    with pytest.raises(MappingError):
        pt.load_versions(np.zeros(3, dtype=np.uint64))


# -- property tests -------------------------------------------------------------

@st.composite
def write_sequences(draw):
    npages = draw(st.integers(min_value=1, max_value=64))
    n_ops = draw(st.integers(min_value=0, max_value=30))
    ops = []
    for _ in range(n_ops):
        lo = draw(st.integers(min_value=0, max_value=npages - 1))
        hi = draw(st.integers(min_value=lo + 1, max_value=npages))
        kind = draw(st.sampled_from(["cpu", "dma", "protect", "reset"]))
        ops.append((kind, lo, hi))
    return npages, ops


@given(write_sequences())
@settings(max_examples=200)
def test_property_dirty_implies_unprotected_on_cpu_path(seq):
    """Invariant: a page can never be both dirty and protected, because the
    fault handler unprotects exactly the pages it records -- unless DMA or
    an explicit mprotect intervened, which is what the bounce buffer
    prevents in the instrumented configuration."""
    npages, ops = seq
    pt = PageTable(npages)
    pt.protect_all()
    version = 0
    dma_or_protect_happened = False
    for kind, lo, hi in ops:
        version += 1
        if kind == "cpu":
            pt.cpu_write(lo, hi, version)
        elif kind == "dma":
            pt.dma_write(lo, hi, version)
            dma_or_protect_happened = True
        elif kind == "protect":
            pt.protect_range(lo, hi)
            dma_or_protect_happened = True
        else:
            pt.reset_dirty()
            pt.protect_all()
    if not dma_or_protect_happened:
        assert not (pt.dirty & pt.protected).any()


@given(write_sequences())
@settings(max_examples=200)
def test_property_dirty_set_matches_reference_model(seq):
    """The vectorized table agrees with a naive per-page reference model."""
    npages, ops = seq
    pt = PageTable(npages)
    pt.protect_all()
    ref_protected = [True] * npages
    ref_dirty = [False] * npages
    version = 0
    for kind, lo, hi in ops:
        version += 1
        if kind == "cpu":
            pt.cpu_write(lo, hi, version)
            for p in range(lo, hi):
                if ref_protected[p]:
                    ref_dirty[p] = True
                    ref_protected[p] = False
        elif kind == "dma":
            pt.dma_write(lo, hi, version)
        elif kind == "protect":
            pt.protect_range(lo, hi)
            for p in range(lo, hi):
                ref_protected[p] = True
        else:
            pt.reset_dirty()
            pt.protect_all()
            ref_dirty = [False] * npages
            ref_protected = [True] * npages
    assert list(pt.dirty) == ref_dirty
    assert list(pt.protected) == ref_protected


@given(st.integers(min_value=1, max_value=64), st.data())
@settings(max_examples=100)
def test_property_fault_count_equals_newly_unprotected(npages, data):
    pt = PageTable(npages)
    pt.protect_all()
    total_faults = 0
    for i in range(10):
        lo = data.draw(st.integers(min_value=0, max_value=npages - 1))
        hi = data.draw(st.integers(min_value=lo + 1, max_value=npages))
        before = int(np.count_nonzero(pt.protected))
        faults = pt.cpu_write(lo, hi, i + 1)
        after = int(np.count_nonzero(pt.protected))
        assert faults == before - after
        total_faults += faults
    assert total_faults == pt.dirty_count()


# -- incremental dirty accounting ------------------------------------------------

def test_dirty_count_exact_when_protecting_over_dirty_pages():
    """Re-arming protection without a reset (protect-over-dirty) must not
    double-count already-dirty pages on the next faulting write."""
    pt = PageTable(8)
    pt.protect_all()
    pt.cpu_write(0, 4, version=1)          # pages 0-3 dirty
    assert pt.dirty_count() == 4
    pt.protect_all()                       # dirty set NOT reset
    pt.cpu_write(2, 6, version=2)          # 2,3 already dirty; 4,5 new
    assert pt.dirty_count() == 6
    assert list(pt.dirty_indices()) == [0, 1, 2, 3, 4, 5]


def test_dirty_count_recounted_on_shrink_and_split():
    pt = PageTable(8)
    pt.protect_all()
    pt.cpu_write(0, 8, version=1)
    assert pt.dirty_count() == 8
    pt.resize(5)
    assert pt.dirty_count() == 5
    tail = pt.split(2)
    assert pt.dirty_count() == 2
    assert tail.dirty_count() == 3


def test_dirty_count_zero_after_reset_then_matches_scan():
    pt = PageTable(16)
    pt.protect_all()
    pt.cpu_write(3, 9, version=1)
    pt.reset_dirty()
    assert pt.dirty_count() == 0
    pt.protect_all()
    pt.cpu_write(1, 2, version=2)
    assert pt.dirty_count() == int(np.count_nonzero(pt.dirty)) == 1


def test_any_protected_ranges():
    pt = PageTable(8)
    assert not pt.any_protected(0, 8)
    pt.protect_all()
    assert pt.any_protected(0, 8)
    assert not pt.any_protected(4, 4)      # empty range
    pt.cpu_write(0, 8, version=1)          # strips all protection
    assert not pt.any_protected(0, 8)
    pt.protect_range(2, 3)
    assert pt.any_protected(0, 4)
    assert not pt.any_protected(3, 8)


@given(write_sequences())
@settings(max_examples=200)
def test_property_dirty_count_matches_array_scan(seq):
    """The O(1) incremental dirty counter always equals a full scan,
    through any interleaving of writes, protects, resets, and DMA."""
    npages, ops = seq
    pt = PageTable(npages)
    pt.protect_all()
    version = 0
    for kind, lo, hi in ops:
        version += 1
        if kind == "cpu":
            pt.cpu_write(lo, hi, version)
        elif kind == "dma":
            pt.dma_write(lo, hi, version)
        elif kind == "protect":
            pt.protect_range(lo, hi)
        else:
            pt.reset_dirty()
            pt.protect_all()
        assert pt.dirty_count() == int(np.count_nonzero(pt.dirty))


"""Unit and property tests for checkpoint capture and chain restore.

The central correctness property: a full checkpoint plus the incremental
deltas reconstructs the data memory *exactly* (equal content signatures),
through arbitrary interleavings of writes, heap growth/shrink, mmap and
munmap.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import (
    Checkpoint,
    DcpCheckpointer,
    FullCheckpointer,
    IncrementalCheckpointer,
    Payload,
    SegmentRecord,
    restore_address_space,
)
from repro.checkpoint.recovery import replay_chain
from repro.errors import CheckpointError, RecoveryError
from repro.mem import AddressSpace, Layout
from repro.units import KiB

PS = 16 * KiB
LAYOUT = Layout(page_size=PS)


def make_space(data_pages=4, bss_pages=2):
    return AddressSpace(LAYOUT, data_size=data_pages * PS,
                        bss_size=bss_pages * PS)


def restore_and_check(asp, chain):
    restored = restore_address_space(chain, layout=LAYOUT)
    assert asp.state_digest() == restored.state_digest(), \
        "restored state differs from original"
    return restored


# -- snapshot objects ---------------------------------------------------------------

def test_checkpoint_nbytes_counts_pages_and_headers():
    asp = make_space()
    ckpt = FullCheckpointer().capture(asp, seq=0)
    assert ckpt.pages_saved == 6  # 4 data + 2 bss (heap empty)
    assert ckpt.nbytes == 6 * PS + 64 * len(ckpt.geometry)


def test_checkpoint_validation():
    with pytest.raises(CheckpointError):
        Checkpoint(seq=0, kind="differential", taken_at=0.0, page_size=PS,
                   geometry=(), payloads=())
    with pytest.raises(CheckpointError):
        Payload(sid=1, indices=np.array([1]), versions=np.array([1, 2]))
    with pytest.raises(CheckpointError):
        Checkpoint(seq=0, kind="full", taken_at=0.0, page_size=PS,
                   geometry=(),
                   payloads=(Payload(sid=9, indices=np.array([0]),
                                     versions=np.array([1])),))
    with pytest.raises(CheckpointError):
        SegmentRecord(sid=1, kind="data", base=0, npages=-1)


# -- full checkpoint restore -----------------------------------------------------------

def test_full_checkpoint_roundtrip():
    asp = make_space()
    asp.cpu_write(asp.data.base, 2 * PS)
    asp.sbrk(3 * PS)
    asp.cpu_write(asp.heap.base, PS)
    seg = asp.mmap(2 * PS)
    asp.cpu_write(seg.base, 2 * PS)
    chain = [FullCheckpointer().capture(asp, seq=0)]
    restore_and_check(asp, chain)


def test_restore_empty_chain_rejected():
    with pytest.raises(RecoveryError):
        restore_address_space([], layout=LAYOUT)


def test_restore_chain_must_start_full():
    asp = make_space()
    inc = IncrementalCheckpointer(asp)
    inc.mark_baseline()
    asp.cpu_write(asp.data.base, PS)
    delta = inc.capture(seq=1)
    with pytest.raises(RecoveryError):
        replay_chain([delta])


def test_restore_page_size_mismatch_rejected():
    asp = make_space()
    chain = [FullCheckpointer().capture(asp, seq=0)]
    with pytest.raises(RecoveryError):
        restore_address_space(chain, layout=Layout(page_size=4096))


# -- incremental capture ------------------------------------------------------------------

def test_incremental_captures_only_dirty_pages():
    asp = make_space()
    asp.protect_data()
    full = FullCheckpointer().capture(asp, seq=0)
    inc = IncrementalCheckpointer(asp)
    inc.mark_baseline()
    asp.cpu_write(asp.data.base, PS)
    delta = inc.capture(seq=1)
    assert delta.pages_saved == 1
    restore_and_check(asp, [full, delta])


def test_incremental_identity_with_iws():
    """The delta of one interval is exactly the IWS: same page count."""
    asp = make_space(data_pages=16)
    asp.protect_data()
    FullCheckpointer().capture(asp, seq=0)
    inc = IncrementalCheckpointer(asp)
    inc.mark_baseline()
    asp.cpu_write(asp.data.base, 5 * PS)
    asp.cpu_write(asp.data.base, 5 * PS)  # rewrite: still 5 unique pages
    assert asp.dirty_pages() == 5
    delta = inc.capture(seq=1)
    assert delta.pages_saved == asp.dirty_pages() == 5
    # sub-page units: six blocks saved, on the five distinct pages
    sub = make_space(data_pages=16)
    sub.protect_data()
    dcp = DcpCheckpointer(sub, block_size=PS // 4)
    dcp.mark_baseline()
    for page in range(5):
        sub.cpu_write(sub.data.base + page * PS, 8)
    sub.cpu_write(sub.data.base + PS // 2, 8)
    delta = dcp.capture(seq=1)
    assert delta.kind == "dcp" and len(delta.payloads[0].indices) == 6
    assert delta.pages_saved == sub.dirty_pages() == 5


def test_incremental_accumulates_across_slices():
    """Dirty resets between checkpoints must not lose pages (the tracker
    resets every slice; the checkpointer observes before each reset)."""
    asp = make_space(data_pages=8)
    asp.protect_data()
    full = FullCheckpointer().capture(asp, seq=0)
    inc = IncrementalCheckpointer(asp)
    inc.mark_baseline()
    # slice 1
    asp.cpu_write(asp.data.base, 2 * PS)
    inc.observe()
    asp.reset_dirty()
    asp.protect_data()
    # slice 2
    asp.cpu_write(asp.data.base + 4 * PS, 2 * PS)
    delta = inc.capture(seq=2)
    assert delta.pages_saved == 4
    restore_and_check(asp, [full, delta])


def test_incremental_captures_heap_growth_even_unprotected():
    """Writes to fresh heap pages take no faults (not yet protected) but
    must still reach the checkpoint: they are 'new pages'."""
    asp = make_space()
    asp.protect_data()
    full = FullCheckpointer().capture(asp, seq=0)
    inc = IncrementalCheckpointer(asp)
    inc.mark_baseline()
    asp.sbrk(4 * PS)
    asp.cpu_write(asp.heap.base, 2 * PS)   # unprotected: no dirty bits
    assert asp.dirty_pages() == 0
    delta = inc.capture(seq=1)
    assert delta.pages_saved == 4          # all new heap pages
    restore_and_check(asp, [full, delta])


def test_incremental_heap_shrink_then_regrow():
    asp = make_space()
    asp.sbrk(4 * PS)
    asp.cpu_write(asp.heap.base, 4 * PS)
    full = FullCheckpointer().capture(asp, seq=0)
    inc = IncrementalCheckpointer(asp)
    inc.mark_baseline()
    asp.sbrk(-2 * PS)
    asp.sbrk(2 * PS)  # regrown pages are zero-filled now
    delta = inc.capture(seq=1)
    restored = restore_and_check(asp, [full, delta])
    # the regrown pages must be zero, not their pre-shrink content
    assert (restored.heap.pages.versions[2:] == 0).all()


def test_incremental_mmap_and_munmap():
    asp = make_space()
    asp.protect_data()
    full = FullCheckpointer().capture(asp, seq=0)
    inc = IncrementalCheckpointer(asp)
    inc.mark_baseline()
    seg = asp.mmap(3 * PS)
    asp.cpu_write(seg.base, 3 * PS)
    d1 = inc.capture(seq=1)
    assert d1.pages_saved == 3
    restore_and_check(asp, [full, d1])
    # unmap: the segment disappears from the next delta's geometry
    asp.munmap(seg.base, 3 * PS)
    d2 = inc.capture(seq=2)
    restored = restore_and_check(asp, [full, d1, d2])
    assert restored.mmap_segments() == []


def test_memory_exclusion_saves_bytes():
    """A region mapped, written, and unmapped within one interval never
    reaches stable storage (section 4.2's memory exclusion)."""
    asp = make_space()
    asp.protect_data()
    FullCheckpointer().capture(asp, seq=0)
    inc = IncrementalCheckpointer(asp)
    inc.mark_baseline()
    seg = asp.mmap(64 * PS)
    asp.cpu_write(seg.base, 64 * PS)
    asp.munmap(seg.base, 64 * PS)
    delta = inc.capture(seq=1)
    assert delta.pages_saved == 0


def test_remap_at_same_base_not_polluted_by_old_content():
    """A new segment reusing an old segment's base must restore to its
    own (zero) content, not the old segment's saved pages."""
    asp = make_space()
    full = FullCheckpointer().capture(asp, seq=0)
    inc = IncrementalCheckpointer(asp)
    inc.mark_baseline()
    seg1 = asp.mmap(2 * PS)
    asp.cpu_write(seg1.base, 2 * PS)
    d1 = inc.capture(seq=1)
    base = seg1.base
    asp.munmap(base, 2 * PS)
    seg2 = asp.mmap_fixed(base, 2 * PS)   # fresh zero-filled mapping
    d2 = inc.capture(seq=2)
    restored = restore_and_check(asp, [full, d1, d2])
    assert (restored.find_segment(base).pages.versions == 0).all()


def test_capture_includes_pending_dirty_without_explicit_observe():
    asp = make_space()
    asp.protect_data()
    inc = IncrementalCheckpointer(asp)
    inc.mark_baseline()
    asp.cpu_write(asp.data.base, 2 * PS)
    delta = inc.capture(seq=1)  # no observe() call before
    assert delta.pages_saved == 2


def test_detach_removes_heap_listener():
    asp = make_space()
    inc = IncrementalCheckpointer(asp)
    inc.detach()
    assert inc._on_heap_resize not in asp.heap_resize_listeners
    inc.detach()  # idempotent


# -- the property test: arbitrary histories restore exactly ---------------------------------

@st.composite
def histories(draw):
    n_ops = draw(st.integers(min_value=1, max_value=25))
    ops = []
    for _ in range(n_ops):
        ops.append(draw(st.sampled_from(
            ["write_data", "write_bss", "write_heap", "write_mmap",
             "grow_heap", "shrink_heap", "mmap", "munmap",
             "slice_reset", "checkpoint"])))
    return ops


@given(histories())
@settings(max_examples=120, deadline=None)
def test_property_chain_restore_is_exact(ops):
    asp = make_space(data_pages=6, bss_pages=3)
    asp.protect_data()
    chain = [FullCheckpointer().capture(asp, seq=0)]
    inc = IncrementalCheckpointer(asp)
    inc.mark_baseline()
    mmaps: list = []
    rng = np.random.default_rng(hash(tuple(ops)) % (2 ** 32))
    seq = 1

    for op in ops:
        if op == "write_data":
            page = int(rng.integers(0, asp.data.npages))
            asp.cpu_write_pages(asp.data, page, page + 1)
        elif op == "write_bss":
            page = int(rng.integers(0, asp.bss.npages))
            asp.cpu_write_pages(asp.bss, page, page + 1)
        elif op == "write_heap" and asp.heap.npages:
            page = int(rng.integers(0, asp.heap.npages))
            asp.cpu_write_pages(asp.heap, page, page + 1)
        elif op == "write_mmap" and mmaps:
            seg = mmaps[int(rng.integers(0, len(mmaps)))]
            page = int(rng.integers(0, seg.npages))
            asp.cpu_write_pages(seg, page, page + 1)
        elif op == "grow_heap":
            asp.sbrk(int(rng.integers(1, 4)) * PS)
        elif op == "shrink_heap" and asp.heap.npages:
            asp.sbrk(-int(rng.integers(1, asp.heap.npages + 1)) * PS)
        elif op == "mmap":
            seg = asp.mmap(int(rng.integers(1, 4)) * PS)
            seg.pages.protect_all()
            mmaps.append(seg)
        elif op == "munmap" and mmaps:
            seg = mmaps.pop(int(rng.integers(0, len(mmaps))))
            asp.munmap(seg.base, seg.size)
        elif op == "slice_reset":
            inc.observe()
            asp.reset_dirty()
            asp.protect_data()
        elif op == "checkpoint":
            chain.append(inc.capture(seq=seq))
            seq += 1
            # the capture rides a timeslice alarm, whose handler resets
            # the dirty set and re-protects -- the contract that keeps
            # later writes observable (see IncrementalCheckpointer docs)
            asp.reset_dirty()
            asp.protect_data()

    chain.append(inc.capture(seq=seq))
    restore_and_check(asp, chain)

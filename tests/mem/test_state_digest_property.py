"""Differential property test: the cached state digest is never stale.

:meth:`AddressSpace.state_digest` reuses each page table's cached leaf
(:meth:`PageTable.leaf`) and each segment's cached record, so it
rehashes only the segments changed since the previous digest.  A
mutator that forgot to drop a leaf, or a record kept across a rebind,
would return a stale digest.  These tests drive random histories --
CPU and DMA stores, brk grow/shrink/regrow, whole and partial munmap,
same-size re-mmap through the region arena, MAP_FIXED maps and sub-page
block tracking -- and compare every digest against
:func:`reference_digest`, which recomputes every leaf from scratch.  A
space restored from a chain captured along the way (cold caches) must
digest equal to the original.
"""

import dataclasses
from hashlib import sha256

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import (
    FullCheckpointer,
    IncrementalCheckpointer,
    restore_address_space,
)
from repro.mem import AddressSpace, Layout

PS = 4096
LAYOUT = Layout(page_size=PS)
OPS = ("cpu", "cpu_bytes", "dma", "grow_heap", "shrink_heap", "mmap",
       "munmap", "munmap_part", "remap_same", "mmap_fixed", "blocks",
       "slice", "checkpoint")


def reference_digest(asp: AddressSpace) -> bytes:
    """The digest's format with nothing cached: every leaf rehashed."""
    h = sha256()
    for seg in sorted(asp.data_segments(),
                      key=lambda seg: (seg.kind.value, seg.base)):
        h.update(f"{seg.kind.value}|{seg.base}|{seg.size}|".encode())
        h.update(sha256(seg.pages.versions).digest())
    return h.digest()


def _page_span(data, npages):
    lo = data.draw(st.integers(0, npages - 1))
    return lo, data.draw(st.integers(lo + 1, npages))


def _step(data, asp, inc, chain):
    """Apply one drawn operation to ``asp``; captures go to ``chain``."""
    op = data.draw(st.sampled_from(OPS))
    segs = [seg for seg in asp.data_segments() if seg.npages]
    mmaps = asp.mmap_segments()
    if op == "cpu" and segs:
        seg = data.draw(st.sampled_from(segs))
        asp.cpu_write_pages(seg, *_page_span(data, seg.npages))
    elif op == "cpu_bytes" and segs:
        seg = data.draw(st.sampled_from(segs))
        off = data.draw(st.integers(0, seg.size - 1))
        size = data.draw(st.integers(1, min(seg.size - off, 3 * PS)))
        asp.cpu_write(seg.base + off, size)
    elif op == "dma":
        # only into dirty pages: a DMA into a protected clean page is
        # the unrecorded write incremental checkpoints miss by design
        dirty = [(seg, page) for seg in segs
                 for page in seg.pages.dirty_indices()]
        if dirty:
            seg, page = data.draw(st.sampled_from(dirty))
            assert asp.dma_write(seg.base + page * PS, PS).missed == 0
    elif op == "grow_heap":
        asp.sbrk(data.draw(st.integers(1, 4)) * PS)
    elif op == "shrink_heap" and asp.heap.npages:
        asp.sbrk(-data.draw(st.integers(1, asp.heap.npages)) * PS)
    elif op == "mmap":
        asp.mmap(data.draw(st.integers(1, 4)) * PS)
    elif op == "munmap" and mmaps:
        seg = data.draw(st.sampled_from(mmaps))
        asp.munmap(seg.base, seg.size)
    elif op == "munmap_part":
        wide = [seg for seg in mmaps if seg.npages >= 2]
        if wide:
            seg = data.draw(st.sampled_from(wide))
            lo, hi = _page_span(data, seg.npages)
            if hi - lo == seg.npages:
                hi -= 1             # keep a remainder: this is a split
            asp.munmap(seg.base + lo * PS, (hi - lo) * PS)
    elif op == "remap_same" and mmaps:
        seg = data.draw(st.sampled_from(mmaps))
        size = seg.size
        asp.munmap(seg.base, size)
        asp.mmap(size)              # reuses a parked segment
    elif op == "mmap_fixed" and mmaps:
        seg = data.draw(st.sampled_from(mmaps))
        base, npages = seg.base, seg.npages
        asp.munmap(base, seg.size)
        asp.mmap_fixed(base, data.draw(st.integers(1, npages)) * PS)
    elif op == "blocks":
        asp.enable_block_tracking(256)
    elif op == "slice":
        inc.observe()
        asp.reset_dirty()
        asp.protect_data()
    elif op == "checkpoint":
        chain.append(inc.capture(seq=len(chain)))
        asp.reset_dirty()
        asp.protect_data()


@pytest.mark.parametrize("every_step", [True, False],
                         ids=["every-step", "random-points"])
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_cached_digest_matches_reference_and_restore(every_step, data):
    asp = AddressSpace(LAYOUT, data_size=3 * PS, bss_size=2 * PS)
    asp.protect_data()
    chain = [FullCheckpointer().capture(asp, seq=0)]
    inc = IncrementalCheckpointer(asp)
    inc.mark_baseline()
    for _ in range(data.draw(st.integers(1, 30))):
        _step(data, asp, inc, chain)
        if every_step or data.draw(st.booleans()):
            assert asp.state_digest() == reference_digest(asp)
    assert asp.state_digest() == reference_digest(asp)

    head = inc.capture(seq=len(chain))
    # a head that records the digest makes the restore check itself too
    chain.append(dataclasses.replace(head, state_digest=asp.state_digest()))
    restored = restore_address_space(chain, layout=LAYOUT)
    assert restored.state_digest() == reference_digest(restored)
    assert restored.state_digest() == asp.state_digest()


def test_digest_covers_geometry_and_versions():
    """Kind, base, size and every version move the digest."""
    asp = AddressSpace(LAYOUT, data_size=2 * PS)
    before = asp.state_digest()
    asp.sbrk(PS)                       # a zero page changes the size only
    grown = asp.state_digest()
    assert grown != before
    asp.cpu_write(asp.heap.base, 1)
    assert asp.state_digest() not in (before, grown)
    asp.sbrk(-PS)
    assert asp.state_digest() == before
    seg = asp.mmap(PS)
    mapped = asp.state_digest()
    asp.munmap(seg.base, PS)
    asp.mmap_fixed(seg.base + PS, PS)  # same size, another base
    assert asp.state_digest() not in (before, mapped)
    assert asp.state_digest() == reference_digest(asp)


def test_digest_rehashes_only_written_segments():
    asp = AddressSpace(LAYOUT, data_size=2 * PS, bss_size=PS)
    asp.state_digest()
    leaves = {seg: seg.pages.leaf() for seg in asp.data_segments()}
    asp.cpu_write(asp.data.base, 1)
    asp.state_digest()
    assert asp.bss.pages.leaf() is leaves[asp.bss]
    assert asp.data.pages.leaf() is not leaves[asp.data]
    assert np.array_equal(asp.data.pages.versions, [1, 0])

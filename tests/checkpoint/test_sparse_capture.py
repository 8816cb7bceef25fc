"""Differential: sparse capture equals the dense reference loop.

:class:`~repro.checkpoint.IncrementalCheckpointer` folds and captures
only the segments with something to save (DESIGN.md section 6.14).  The
dense loop it replaced lives in ``tests/checkpoint/reference.py``.  Both
checkpointers ride the *same* address space -- observing is read-only,
and segment ids are a process-global counter, so two spaces would never
agree on them -- through random histories of CPU and DMA stores, brk
grow/shrink/regrow, mmap, partial munmap, arena recycling, timeslice
resets and full captures with ``mark_baseline``.  Every checkpoint must
agree field for field and array for array, and under sub-page blocks so
must the dcp ``last_*`` stats.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import (DcpCheckpointer, FullCheckpointer,
                              IncrementalCheckpointer)
from repro.mem import AddressSpace, Layout
from tests.checkpoint.reference import (DenseCheckpointer,
                                        DenseDcpCheckpointer, dense_geometry)

PS = 4096
LAYOUT = Layout(page_size=PS)

#: a store of ``frac * segment size`` bytes at a fraction of the segment
stores = st.tuples(st.integers(0, 10**6), st.floats(0, 1), st.floats(0, 1))
ops = st.lists(st.one_of(
    st.tuples(st.just("cpu"), stores),
    st.tuples(st.just("dma"), stores),
    st.tuples(st.just("sbrk"), st.integers(-3, 4)),
    st.tuples(st.just("brk_cycle"), st.integers(1, 3)),
    st.tuples(st.just("mmap"), st.integers(1, 4)),
    st.tuples(st.just("munmap"),
              st.tuples(st.integers(0, 10**6), st.floats(0, 1),
                        st.floats(0, 1))),
    st.tuples(st.just("recycle"), st.integers(0, 10**6)),
    st.tuples(st.just("slice"), st.none()),
    st.tuples(st.just("capture"), st.none()),
    st.tuples(st.just("full"), st.none()),
), min_size=1, max_size=40)


def assert_same_checkpoint(got, want):
    for field in ("seq", "kind", "taken_at", "page_size", "block_size",
                  "geometry"):
        assert getattr(got, field) == getattr(want, field), field
    assert len(got.payloads) == len(want.payloads)
    for p, q in zip(got.payloads, want.payloads):
        assert p.sid == q.sid
        for arr in ("indices", "versions"):
            a, b = getattr(p, arr), getattr(q, arr)
            assert a.dtype == b.dtype and np.array_equal(a, b), arr


def dcp_stats(inc):
    return (inc.last_blocks_hashed, inc.last_blocks_written,
            inc.last_page_mode_nbytes)


def store(asp, write, pick, frac_at, frac_len):
    segs = [s for s in asp.data_segments() if s.npages]
    seg = segs[pick % len(segs)]
    offset = min(int(frac_at * seg.size), seg.size - 1)
    length = max(1, int(frac_len * (seg.size - offset)))
    write(seg.base + offset, length)


def munmap(asp, pick, frac_at, frac_len):
    segs = asp.mmap_segments()
    if not segs:
        return
    seg = segs[pick % len(segs)]
    lo = min(int(frac_at * seg.npages), seg.npages - 1)
    n = max(1, int(frac_len * (seg.npages - lo)))
    asp.munmap(seg.base + lo * PS, n * PS)


def recycle(asp, pick):
    """Unmap a whole segment and map the same size at once: the arena
    hands back the parked segment object under a fresh sid."""
    segs = asp.mmap_segments()
    if segs:
        seg = segs[pick % len(segs)]
        size = seg.size
        asp.munmap(seg.base, size)
        asp.mmap(size)


def run_differential(history, block_size):
    asp = AddressSpace(LAYOUT, data_size=4 * PS, bss_size=2 * PS)
    asp.sbrk(2 * PS)
    if block_size < PS:
        sparse = DcpCheckpointer(asp, block_size=block_size)
        dense = DenseDcpCheckpointer(asp, block_size=block_size)
    else:
        sparse = IncrementalCheckpointer(asp, block_size)
        dense = DenseCheckpointer(asp, block_size)
    full = FullCheckpointer()
    sparse.mark_baseline()
    dense.mark_baseline()
    asp.reset_and_protect()
    seq = 0
    for op, arg in history:
        if op == "cpu":
            store(asp, asp.cpu_write, *arg)
        elif op == "dma":
            store(asp, asp.dma_write, *arg)
        elif op == "sbrk":
            asp.sbrk(max(arg * PS, -asp.heap.size))
        elif op == "brk_cycle":
            # shrink then regrow within one interval: the regrown pages
            # lie below the heap's low-water mark
            shrink = min(arg * PS, asp.heap.size)
            asp.sbrk(-shrink)
            asp.sbrk(shrink)
        elif op == "mmap":
            asp.mmap(arg * PS)
        elif op == "munmap":
            munmap(asp, *arg)
        elif op == "recycle":
            recycle(asp, arg)
        elif op == "slice":
            sparse.observe()
            dense.observe()
            asp.reset_and_protect()
        else:
            seq += 1
            if op == "full":
                ckpt = full.capture(asp, seq, taken_at=float(seq))
                assert ckpt.geometry == dense_geometry(asp)
                sparse.mark_baseline()
                dense.mark_baseline()
            else:
                got = sparse.capture(seq, taken_at=float(seq))
                want = dense.capture(seq, taken_at=float(seq))
                assert_same_checkpoint(got, want)
                if block_size < PS:
                    assert dcp_stats(sparse) == dcp_stats(dense)
            asp.reset_and_protect()
    # a last capture sees whatever the history left accumulated
    assert_same_checkpoint(sparse.capture(seq + 1), dense.capture(seq + 1))


@pytest.mark.parametrize("block_size", [PS, 256])
@settings(max_examples=60, deadline=None)
@given(history=ops)
def test_sparse_capture_equals_dense(block_size, history):
    run_differential(history, block_size)


@pytest.mark.parametrize("block_size", [PS, 256])
def test_heap_regrow_below_low_water_mark_is_captured(block_size):
    # shrink-then-regrow between captures: the regrown pages are new
    # although the heap ends no larger than at the last capture, and
    # nothing in it is dirty
    history = [("sbrk", 4), ("cpu", (3, 0.0, 1.0)), ("capture", None),
               ("sbrk", -3), ("sbrk", 3), ("capture", None)]
    run_differential(history, block_size)


def test_dense_reference_visits_every_segment():
    # the guard that the reference really is the dense loop: at a
    # quiet capture it calls the unit hook for every mapped segment,
    # the sparse loop for none
    asp = AddressSpace(LAYOUT, data_size=4 * PS, bss_size=2 * PS)
    asp.mmap(2 * PS)
    calls = {}
    for cls in (IncrementalCheckpointer, DenseCheckpointer):
        class Counting(cls):
            def _units(self, seg, pages, new_from, _cls=cls):
                calls[_cls] = calls.get(_cls, 0) + 1
                return super()._units(seg, pages, new_from)
        inc = Counting(asp)
        inc.mark_baseline()
        inc.capture(1)
        inc.detach()
    assert calls == {DenseCheckpointer: 3}

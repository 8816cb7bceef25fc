"""Property tests for sub-page differential (dcp) checkpointing.

Two pillars, both hypothesis-driven:

1. **Restore is exact at every crash point.**  Random write patterns
   are checkpointed as a full plus dcp deltas at random block sizes
   (including the 1-byte edge case); truncating the chain at *every*
   prefix and replaying must reproduce the state recorded at that
   capture version-identically.
2. **Block version vectors are deterministic.**  The per-block write
   versions are a pure function of the segment's history: two identical
   runs produce equal vectors, element for element.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import (DcpCheckpointer, FullCheckpointer,
                              restore_address_space)
from repro.errors import CheckpointError
from repro.mem import AddressSpace, Layout

PS = 4096
LAYOUT = Layout(page_size=PS)
DATA_PAGES = 4
BLOCK_SIZES = [1, 16, 64, PS // 2, PS]

#: one inter-checkpoint interval: a handful of (offset, length) stores
writes = st.lists(
    st.tuples(st.integers(0, DATA_PAGES * PS - 1),
              st.integers(1, 3 * PS)),
    min_size=0, max_size=4)
histories = st.lists(writes, min_size=1, max_size=5)


def make_space():
    asp = AddressSpace(LAYOUT, data_size=DATA_PAGES * PS, bss_size=PS)
    asp.protect_data()
    return asp


def apply_interval(asp, interval):
    for offset, length in interval:
        length = min(length, DATA_PAGES * PS - offset)
        asp.cpu_write(asp.data.base + offset, length)


def build_chain(asp, block_size, history):
    """Full + one dcp delta per interval, plus the state digest
    recorded right after each capture."""
    dcp = DcpCheckpointer(asp, block_size=block_size)
    chain = [FullCheckpointer().capture(asp, seq=0)]
    dcp.mark_baseline()
    states = [asp.state_digest()]
    for seq, interval in enumerate(history, start=1):
        apply_interval(asp, interval)
        chain.append(dcp.capture(seq=seq))
        states.append(asp.state_digest())
    return chain, states


@settings(max_examples=25, deadline=None)
@given(block_size=st.sampled_from(BLOCK_SIZES), history=histories)
def test_restore_version_identical_at_every_crash_point(block_size, history):
    asp = make_space()
    chain, states = build_chain(asp, block_size, history)
    for k in range(1, len(chain) + 1):
        restored = restore_address_space(chain[:k], layout=LAYOUT)
        assert restored.state_digest() == states[k - 1], \
            f"crash after piece {k - 1} restored a different state"


@settings(max_examples=20, deadline=None)
@given(history=histories)
def test_block_version_vectors_deterministic(history):
    vecs = []
    for _ in range(2):
        asp = make_space()
        asp.enable_block_tracking(64)
        for interval in history:
            apply_interval(asp, interval)
        vecs.append(asp.data.blocks.versions.copy())
    assert np.array_equal(vecs[0], vecs[1])


def test_restore_exact_through_heap_shrink_and_regrow():
    # the stale-baseline hazard: a heap page freed and re-mapped between
    # checkpoints must be re-emitted whole even if its hashes match the
    # pre-shrink baseline
    asp = make_space()
    dcp = DcpCheckpointer(asp, block_size=64)
    asp.sbrk(2 * PS)
    asp.cpu_write(asp.heap.base, 2 * PS)
    chain = [FullCheckpointer().capture(asp, seq=0)]
    dcp.mark_baseline()
    asp.sbrk(-2 * PS)
    asp.sbrk(2 * PS)
    asp.cpu_write(asp.heap.base, PS)
    chain.append(dcp.capture(seq=1))
    restored = restore_address_space(chain, layout=LAYOUT)
    assert restored.state_digest() == asp.state_digest()


def test_invalid_block_sizes_rejected():
    asp = make_space()
    for bad in (0, -1, 3, PS + 1, PS - 1):
        with pytest.raises(CheckpointError):
            DcpCheckpointer(asp, block_size=bad)

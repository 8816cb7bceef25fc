"""The mmap region arena: whole-segment unmaps park the host object and
the next same-size mmap reuses it -- same base address, fresh sid,
recycled page state -- so the Sage-style per-iteration alloc/free churn
stops constructing segments and page tables from scratch.

The contract is behavioural invisibility: everything layered on
segments (trackers, checkpoints, protection) sees exactly what fresh
construction would produce.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.experiment import paper_config, run_experiment
from repro.errors import MappingError
from repro.mem import AddressSpace, Layout
from repro.mem.address_space import AddressSpace as _ASP
from repro.units import KiB

PS = 16 * KiB


def make_space(**kw):
    kw.setdefault("data_size", 4 * PS)
    kw.setdefault("bss_size", 4 * PS)
    return AddressSpace(Layout(page_size=PS), **kw)


# -- reuse mechanics ----------------------------------------------------------

def test_full_unmap_parks_and_same_size_mmap_reuses():
    asp = make_space()
    seg = asp.mmap(3 * PS, name="scratch")
    base, old_sid = seg.base, seg.sid
    asp.munmap(seg.base, seg.size)
    again = asp.mmap(3 * PS, name="scratch2")
    assert again is seg                 # the host object came back
    assert again.base == base           # at a stable address
    assert again.sid != old_sid         # but as a *new* segment identity
    assert again.name == "scratch2"


def test_reused_segment_page_state_matches_fresh_mapping():
    asp = make_space()
    asp.enable_block_tracking(PS // 4)
    seg = asp.mmap(2 * PS)
    seg.pages.protect_all()
    seg.pages.cpu_write(0, 1, version=3)
    assert seg.pages.dirty_count() == 1
    asp.cpu_write(seg.base + PS, 8)
    assert seg.blocks.versions.any()
    asp.munmap(seg.base, seg.size)
    again = asp.mmap(2 * PS)
    assert again is seg
    assert again.pages.dirty_count() == 0
    assert not again.pages.any_protected(0, again.npages)
    # a recycled table starts versioning from scratch, like a fresh one
    assert int(again.pages.versions[0]) == 0
    assert not again.blocks.versions.any()


def test_addresses_stable_across_alloc_free_iterations():
    """The steady-state pattern -- allocate forward, free forward, as
    FreePhase does -- sees identical per-iteration layouts (FIFO reuse;
    a reversed free order would legitimately permute same-size groups)."""
    asp = make_space()
    layouts = []
    for _ in range(5):
        segs = [asp.mmap(2 * PS), asp.mmap(4 * PS), asp.mmap(2 * PS)]
        layouts.append([(s.base, s.size) for s in segs])
        for s in segs:
            asp.munmap(s.base, s.size)
    assert all(layout == layouts[0] for layout in layouts[1:])


def test_partial_unmap_is_never_parked():
    asp = make_space()
    seg = asp.mmap(4 * PS)
    asp.munmap(seg.base, 2 * PS)        # head unmap splits, no parking
    assert asp._arena == {}
    again = asp.mmap(2 * PS)
    assert again is not seg


def test_occupied_base_falls_back_to_gap_scan():
    asp = make_space()
    seg = asp.mmap(2 * PS)
    old_base = seg.base
    asp.munmap(seg.base, seg.size)
    squatter = asp.mmap_fixed(old_base, 2 * PS)   # takes the old address
    again = asp.mmap(2 * PS)
    assert again is seg                 # still reused from the arena...
    assert again.base != old_base       # ...but re-homed elsewhere
    assert asp._mmap_overlap(again.base, again.size) in (squatter, again)


def test_arena_cap_bounds_parked_segments():
    asp = make_space()
    asp._arena_cap = 2
    segs = [asp.mmap(PS) for _ in range(4)]
    for s in segs:
        asp.munmap(s.base, s.size)
    assert asp._arena_count == 2
    assert sum(len(v) for v in asp._arena.values()) == 2


def test_map_listeners_fire_on_reuse():
    """Trackers re-protect via the map listener; reuse must look like a
    brand-new mapping to them."""
    asp = make_space()
    mapped, unmapped = [], []
    asp.map_listeners.append(lambda s: mapped.append(s.sid))
    asp.unmap_listeners.append(lambda s: unmapped.append(s.sid))
    seg = asp.mmap(2 * PS)
    asp.munmap(seg.base, seg.size)
    asp.mmap(2 * PS)
    assert len(mapped) == 2 and len(unmapped) == 1
    assert mapped[0] == unmapped[0] != mapped[1]


@given(st.lists(st.integers(min_value=1, max_value=6),
                min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_iteration_layouts_byte_identical_under_random_patterns(npages_list):
    """Property: any alloc pattern, repeated with full frees in between,
    reproduces a byte-identical address layout every iteration."""
    asp = make_space()
    layouts = []
    for _ in range(3):
        segs = [asp.mmap(n * PS) for n in npages_list]
        layouts.append([(s.base, s.size, s.pages.dirty_count()) for s in segs])
        for s in segs:
            asp.munmap(s.base, s.size)
    assert layouts[0] == layouts[1] == layouts[2]


# -- differential: arena on vs off through a full workload --------------------

def test_experiment_records_identical_with_arena_disabled(monkeypatch):
    """Turning the arena off (every park refused) must not change a
    single simulated record -- the arena only recycles host objects."""
    cfg = paper_config("sage-50MB", nranks=8, timeslice=1.0,
                       run_duration=10.0)
    with_arena = run_experiment(cfg)
    monkeypatch.setattr(_ASP, "_park", lambda self, seg: None)
    without_arena = run_experiment(cfg)
    assert with_arena.final_time == without_arena.final_time
    assert with_arena.iterations == without_arena.iterations
    for rank in range(8):
        assert (with_arena.logs[rank].records
                == without_arena.logs[rank].records)

"""Tests for checkpoint garbage collection and restore-time estimation."""

import pytest

from repro.apps.synthetic import SyntheticApp, small_spec
from repro.checkpoint import CheckpointEngine, RecoveryManager
from repro.checkpoint.recovery import estimated_restore_time
from repro.errors import RecoveryError
from repro.instrument import InstrumentationLibrary, TrackerConfig
from repro.mpi import MPIJob
from repro.sim import Engine
from repro.storage import DisklessSink
from repro.units import MiB

SPEC = small_spec(name="gc-app", footprint_mb=8, main_mb=4, period=1.0,
                  passes=1.0, comm_mb=0.25)


def run_engine(n_iterations=12, gc=False, sink_factory=None, full_every=3):
    engine = Engine()
    app = SyntheticApp(SPEC, n_iterations=n_iterations)
    job = MPIJob(engine, 2, process_factory=app.process_factory(engine))
    lib = InstrumentationLibrary(TrackerConfig(timeslice=0.5)).install(job)
    kwargs = {}
    if sink_factory is not None:
        kwargs["storage_factory"] = lambda rank: sink_factory(engine, rank)
    ckpt = CheckpointEngine(job, lib, interval_slices=2,
                            full_every=full_every, gc=gc, **kwargs)
    job.launch(app.make_body())
    engine.run(detect_deadlock=True)
    return app, ckpt


def test_gc_truncates_superseded_chains():
    app, ckpt = run_engine(gc=True)
    assert ckpt.bytes_reclaimed > 0
    # every surviving chain starts with a full checkpoint and holds only
    # the latest epoch
    for rank in range(2):
        pieces = ckpt.store.pieces(rank)
        assert pieces[0].kind == "full"
        fulls = [p for p in pieces if p.kind == "full"]
        assert len(fulls) == 1


def test_gc_off_keeps_everything():
    app, ckpt = run_engine(gc=False)
    assert ckpt.bytes_reclaimed == 0
    fulls = [p for p in ckpt.store.pieces(0) if p.kind == "full"]
    assert len(fulls) >= 2


def test_gc_recovery_still_works():
    app, ckpt = run_engine(gc=True)
    seq = ckpt.store.latest_committed()
    recovery = RecoveryManager(ckpt.store, layout=app.layout)
    restored = recovery.restore_all()
    assert set(restored) == {0, 1}
    # recovery to a collected epoch is (correctly) impossible
    first_seq = min(gc_.seq for gc_ in ckpt.committed())
    if first_seq < ckpt.store.pieces(0)[0].seq:
        with pytest.raises(RecoveryError):
            recovery.restore_rank(0, seq=first_seq)


def test_gc_keeps_diskless_capacity_bounded():
    """Without GC a capacity-limited buddy sink overflows; with GC the
    same run fits."""
    capacity = int(40 * MiB)

    def sink(engine, rank):
        return DisklessSink(engine, capacity=capacity, name=f"buddy{rank}")

    # with GC: runs to completion
    app, ckpt = run_engine(n_iterations=16, gc=True, sink_factory=sink)
    assert len(ckpt.committed()) > 4

    # without GC: held bytes exceed the same capacity at some point
    from repro.errors import StorageError
    with pytest.raises(StorageError):
        run_engine(n_iterations=16, gc=False, sink_factory=sink)


def test_estimated_restore_time():
    app, ckpt = run_engine()
    chain = RecoveryManager(ckpt.store, layout=app.layout).recovery_chain(0)
    t = estimated_restore_time(chain, read_bandwidth=320 * MiB)
    expected = sum(4.7e-3 + c.nbytes / (320 * MiB) for c in chain)
    assert t == pytest.approx(expected)
    # a digest pass over every byte read adds its own term
    verified = estimated_restore_time(chain, read_bandwidth=320 * MiB,
                                      verify_bandwidth=1000 * MiB)
    assert verified == pytest.approx(
        expected + sum(c.nbytes for c in chain) / (1000 * MiB))
    with pytest.raises(RecoveryError):
        estimated_restore_time(chain, read_bandwidth=0)
    with pytest.raises(RecoveryError):
        estimated_restore_time(chain, read_bandwidth=320 * MiB,
                               verify_bandwidth=0)
    with pytest.raises(RecoveryError):
        estimated_restore_time([], read_bandwidth=320 * MiB)

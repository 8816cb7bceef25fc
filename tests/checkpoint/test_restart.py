"""Integration tests: restart-and-continue from a checkpoint store."""

import pytest

from repro.apps.synthetic import SyntheticApp, small_spec
from repro.checkpoint import CheckpointEngine, RestartCoordinator, apply_chain
from repro.checkpoint.recovery import RecoveryManager
from repro.checkpoint import restart as restart_mod
from repro.errors import CorruptionError, RecoveryError
from repro.instrument import InstrumentationLibrary, TrackerConfig
from repro.mem import AddressSpace
from repro.mpi import MPIJob
from repro.sim import Engine
from repro.storage import CheckpointStore

SPEC = small_spec(name="restartable", footprint_mb=8, main_mb=4,
                  period=1.0, passes=1.0, comm_mb=0.25)


def run_until_failure(fail_at=5.25):
    """First life: run, checkpoint, fail a rank."""
    engine = Engine()
    app = SyntheticApp(SPEC, n_iterations=1000)
    job = MPIJob(engine, 2, process_factory=app.process_factory(engine))
    lib = InstrumentationLibrary(TrackerConfig(timeslice=0.5)).install(job)
    ckpt = CheckpointEngine(job, lib, interval_slices=2, full_every=4)
    job.launch(app.make_body())
    engine.schedule(fail_at, job.fail_rank, 1)
    engine.run(until=fail_at + 0.25)
    return app, ckpt


def head_digests(chains, seq):
    """The capture digest each chain's head recorded; every chain must
    end at ``seq``."""
    assert all(chain[-1].seq == seq for chain in chains.values())
    heads = {rank: chain[-1].state_digest for rank, chain in chains.items()}
    assert None not in heads.values()
    return heads


def test_restart_restores_and_continues():
    app, ckpt = run_until_failure()
    seq = ckpt.store.latest_committed()
    assert seq is not None

    # second life: fresh engine and cluster, resumed from the store
    engine2 = Engine()
    app2 = SyntheticApp(SPEC, n_iterations=3)
    chains = RecoveryManager(ckpt.store).recovery_chains()
    heads = head_digests(chains, seq)
    coordinator = RestartCoordinator(app2, chains)
    job2 = coordinator.restart(engine2)
    lib2 = InstrumentationLibrary(TrackerConfig(timeslice=0.5)).install(job2)

    # each resume body checks its restored memory against the chain
    # head's capture digest, before any new computation overwrites it:
    # a mismatch would surface as the rank's exception
    procs = coordinator.launch(job2)
    engine2.run(detect_deadlock=True)
    for p in procs:
        if p.exception is not None:
            raise p.exception
    for rc in app2.contexts:
        assert rc.iterations == 3
    # the restarted run wrote new data on top of the restored state
    for rank in range(2):
        assert job2.processes[rank].memory.state_digest() != heads[rank]


def test_restart_to_earlier_sequence():
    app, ckpt = run_until_failure()
    committed = [gc.seq for gc in ckpt.committed()]
    assert len(committed) >= 2
    engine2 = Engine()
    app2 = SyntheticApp(SPEC, n_iterations=1)
    chains = RecoveryManager(ckpt.store).recovery_chains(seq=committed[0])
    head_digests(chains, committed[0])
    coordinator = RestartCoordinator(app2, chains)
    job2 = coordinator.restart(engine2)
    procs = coordinator.launch(job2)
    engine2.run(detect_deadlock=True)
    assert all(p.exception is None for p in procs)
    assert app2.contexts[0].iterations == 1


def test_restart_requires_commit():
    # nothing committed: there is no chain to restart from
    store = CheckpointStore(2)
    with pytest.raises(RecoveryError, match="no committed"):
        RecoveryManager(store).recovery_chains()


def test_restart_builds_one_rank_per_chain():
    app, ckpt = run_until_failure()
    chains = RecoveryManager(ckpt.store).recovery_chains()
    job = RestartCoordinator(app, chains).restart(Engine())
    assert job.nranks == ckpt.store.nranks == len(chains)


def test_resume_bodies_apply_the_given_chain_objects(monkeypatch):
    # launch() applies exactly the checkpoints it was handed: no second
    # read of the store behind the caller's back
    app, ckpt = run_until_failure()
    chains = RecoveryManager(ckpt.store).recovery_chains()
    applied = {}

    def spy(memory, chain, strict=True):
        applied[memory] = chain
        return apply_chain(memory, chain, strict=strict)

    monkeypatch.setattr(restart_mod, "apply_chain", spy)
    monkeypatch.setattr(RecoveryManager, "recovery_chain", None)
    engine = Engine()
    app2 = SyntheticApp(SPEC, n_iterations=1)
    coordinator = RestartCoordinator(app2, chains)
    job = coordinator.restart(engine)
    coordinator.launch(job)
    engine.run(detect_deadlock=True)
    assert len(applied) == 2
    for rank, proc in enumerate(job.processes):
        assert applied[proc.memory] is chains[rank]


def flipped_store():
    """A store whose newest committed piece of rank 1 has a flipped bit
    (the recorded digest is left as it was)."""
    app, ckpt = run_until_failure()
    seq = ckpt.store.latest_committed()
    assert ckpt.store.flip_bits(1, seq, nbits=4) is not None
    return app, ckpt.store, seq


def test_verified_standalone_read_refuses_a_flipped_piece():
    app, store, seq = flipped_store()
    manager = RecoveryManager(store, layout=app.layout)
    with pytest.raises(CorruptionError, match="digest-mismatch"):
        manager.restore_all()
    # the standalone restart path takes its chains from the same read
    with pytest.raises(CorruptionError, match=f"rank 1 cannot recover to "
                                              f"seq {seq}"):
        RestartCoordinator(app, manager.recovery_chains())
    # the other rank's chain is untouched and still verifies
    assert manager.recovery_chain(0)[-1].seq == seq


def test_unverified_standalone_restore_refuses_a_flipped_piece():
    # without integrity verification the flipped chain is read as is,
    # but restoring it cannot reproduce the state captured at its head
    app, store, seq = flipped_store()
    manager = RecoveryManager(store, layout=app.layout,
                              verify_integrity=False)
    with pytest.raises(RecoveryError, match=f"restored state differs from "
                                            f"the checkpoint captured at "
                                            f"seq {seq}"):
        manager.restore_all()
    assert manager.restore_rank(0).state_digest() == \
        manager.recovery_chain(0)[-1].state_digest


def test_unverified_standalone_restart_stops_at_its_start():
    # the same flipped chain handed to a restart: rank 1's resume body
    # refuses it before the restart barrier and halts the engine, so
    # rank 0 never runs on without its peer
    app, store, seq = flipped_store()
    chains = RecoveryManager(store, verify_integrity=False).recovery_chains()
    engine = Engine()
    app2 = SyntheticApp(SPEC, n_iterations=3)
    coordinator = RestartCoordinator(app2, chains)
    procs = coordinator.launch(coordinator.restart(engine))
    engine.run(detect_deadlock=True)
    assert engine.now == 0.0
    assert isinstance(procs[1].exception, RecoveryError)
    assert str(procs[1].exception).startswith(
        f"rank 1: restored state differs from the checkpoint captured at "
        f"seq {seq}")
    assert procs[0].exception is None
    assert all(rc.iterations == 0 for rc in app2.contexts)


def test_restart_refuses_chains_ending_at_different_sequences():
    # ranks restored to different checkpoints are not a consistent cut
    app, ckpt = run_until_failure()
    committed = [gc.seq for gc in ckpt.committed()]
    assert len(committed) >= 2
    manager = RecoveryManager(ckpt.store)
    chains = manager.recovery_chains()
    chains[1] = manager.recovery_chain(1, seq=committed[0])
    with pytest.raises(RecoveryError, match="different sequences"):
        RestartCoordinator(app, chains)


def test_unverified_standalone_read_returns_the_stored_chain():
    app, store, seq = flipped_store()
    manager = RecoveryManager(store, verify_integrity=False)
    chain = manager.recovery_chain(1)
    stored = store.chain(1, upto_seq=seq)
    assert len(chain) == len(stored) and chain[-1].seq == seq
    assert all(c is p.payload for c, p in zip(chain, stored))
    assert not store.verify_chain(1, upto_seq=seq).intact


def test_apply_chain_recreates_transient_mmaps():
    # a checkpoint taken while a transient allocation (Sage's per-
    # iteration temporaries) was live carries that mmap segment; a
    # restarted process hasn't made the allocation yet, so apply_chain
    # must rebuild it at its recorded address, version for version
    from repro.checkpoint import FullCheckpointer
    from repro.mem import Layout
    from repro.units import KiB

    ps = 16 * KiB
    layout = Layout(page_size=ps)
    original = AddressSpace(layout, data_size=4 * ps, bss_size=2 * ps)
    original.cpu_write(original.data.base, 2 * ps)
    temp = original.mmap(2 * ps)
    original.cpu_write(temp.base, 2 * ps)
    chain = [FullCheckpointer().capture(original, seq=0)]

    fresh = AddressSpace(layout, data_size=4 * ps, bss_size=2 * ps)
    apply_chain(fresh, chain, strict=True)
    assert fresh.state_digest() == original.state_digest()
    rebuilt = fresh.find_segment(temp.base)
    assert rebuilt is not None and rebuilt.npages == temp.npages
    # and the app's next transient allocation lands elsewhere
    again = fresh.mmap(2 * ps)
    assert again.base != temp.base


def test_apply_chain_strict_geometry_checks():
    app, ckpt = run_until_failure()
    recovery = RecoveryManager(ckpt.store, layout=app.layout)
    chain = recovery.recovery_chain(0)

    # geometry too small: a fresh empty process lacks the segments
    from repro.proc import Process
    fresh = Process(Engine(), layout=app.layout, data_size=0, bss_size=0)
    with pytest.raises(RecoveryError):
        apply_chain(fresh.memory, chain, strict=True)

    # mismatched segment size
    from repro.mem import Layout
    eng = Engine()
    app3 = SyntheticApp(SPEC.scaled(footprint_mb=12.0), n_iterations=1)
    job3 = MPIJob(eng, 2, process_factory=app3.process_factory(eng))
    job3.launch(app3.make_body())
    eng.run(detect_deadlock=True)
    with pytest.raises(RecoveryError):
        apply_chain(job3.processes[0].memory, chain, strict=True)

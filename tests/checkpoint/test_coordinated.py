"""Integration tests: coordinated checkpointing and rollback recovery on
full instrumented application runs."""

import pytest

from repro.apps.synthetic import SyntheticApp, small_spec
from repro.checkpoint import CheckpointEngine, RecoveryManager
from repro.errors import CheckpointError, RecoveryError
from repro.instrument import InstrumentationLibrary, TrackerConfig
from repro.mem import AddressSpace
from repro.mpi import MPIJob
from repro.sim import Engine
from repro.storage import CheckpointStore, Disk, RAMDISK


def run_checkpointed(spec=None, nranks=2, timeslice=0.5, n_iterations=4,
                     interval_slices=2, full_every=4, **engine_kw):
    spec = spec or small_spec(period=1.0, footprint_mb=4, main_mb=2)
    eng = Engine()
    app = SyntheticApp(spec, n_iterations=n_iterations)
    job = MPIJob(eng, nranks, process_factory=app.process_factory(eng))
    lib = InstrumentationLibrary(TrackerConfig(timeslice=timeslice),
                                 app_name=spec.name).install(job)
    ckpt = CheckpointEngine(job, lib, interval_slices=interval_slices,
                            full_every=full_every, **engine_kw)
    procs = job.launch(app.make_body())
    eng.run(detect_deadlock=True)
    for p in procs:
        if p.exception is not None:
            raise p.exception
    return eng, app, job, lib, ckpt


def test_global_checkpoints_commit():
    eng, app, job, lib, ckpt = run_checkpointed()
    committed = ckpt.committed()
    assert committed, "no global checkpoint ever committed"
    for gc in committed:
        assert gc.ranks_stored == 2
        assert gc.total_bytes > 0
        assert gc.commit_latency > 0
    assert ckpt.store.latest_committed() == committed[-1].seq


def test_first_checkpoint_is_full_then_incremental():
    eng, app, job, lib, ckpt = run_checkpointed(full_every=100)
    kinds = [gc.kind for gc in ckpt.committed()]
    assert kinds[0] == "full"
    assert all(k == "incremental" for k in kinds[1:])


def test_full_every_schedule():
    eng, app, job, lib, ckpt = run_checkpointed(full_every=2,
                                                n_iterations=6)
    kinds = [gc.kind for gc in ckpt.committed()]
    assert kinds[::2] == ["full"] * len(kinds[::2])


def test_incremental_checkpoints_smaller_than_full():
    eng, app, job, lib, ckpt = run_checkpointed(full_every=100,
                                                n_iterations=6)
    committed = ckpt.committed()
    full = committed[0]
    incrementals = committed[1:]
    assert incrementals
    assert all(gc.total_bytes < full.total_bytes for gc in incrementals)


def test_recovery_restores_exact_state():
    """Roll back to the last committed checkpoint: every rank's restored
    memory must equal the live memory at capture time."""
    spec = small_spec(period=1.0, footprint_mb=4, main_mb=2)
    eng = Engine()
    app = SyntheticApp(spec, n_iterations=4)
    job = MPIJob(eng, 2, process_factory=app.process_factory(eng))
    lib = InstrumentationLibrary(TrackerConfig(timeslice=0.5)).install(job)
    ckpt = CheckpointEngine(job, lib, interval_slices=2)

    # snapshot the live digests at each capture for later comparison
    reference: dict[tuple, bytes] = {}
    for rank in range(2):
        def snap(record, tracker, r=rank):
            if (record.index + 1) % 2 == 0:
                reference[(r, record.index)] = \
                    tracker.process.memory.state_digest()
        job.init_hooks.append(
            lambda ctx, r=rank: None)  # placeholder to keep ordering clear
    # install the snapshot hook via tracker slice listeners after launch
    def install_snap(ctx):
        tracker = lib.tracker(ctx.rank)
        def snap(record, trk, r=ctx.rank):
            if (record.index + 1) % 2 == 0:
                reference[(r, record.index)] = \
                    trk.process.memory.state_digest()
        # insert BEFORE the engine's listener so we snapshot the same state
        tracker.slice_listeners.insert(0, snap)
    job.init_hooks.append(install_snap)

    job.launch(app.make_body())
    eng.run(detect_deadlock=True)

    seq = ckpt.store.latest_committed()
    assert seq is not None
    recovery = RecoveryManager(ckpt.store, layout=app.layout)
    restored = recovery.restore_all()
    for rank, asp in restored.items():
        want = reference[(rank, seq)]
        assert asp.state_digest() == want, \
            f"rank {rank} restored state differs at seq {seq}"


@pytest.mark.parametrize("keep_payloads", [True, False])
def test_state_digest_recorded_exactly_when_payloads_are_kept(
        keep_payloads, monkeypatch):
    # a kept piece can head a restore, so it carries the digest that
    # restore must reproduce; a dropped payload costs no digest at all
    taken = []
    real = AddressSpace.state_digest

    def counting(self):
        taken.append(real(self))
        return taken[-1]

    monkeypatch.setattr(AddressSpace, "state_digest", counting)
    eng, app, job, lib, ckpt = run_checkpointed(keep_payloads=keep_payloads)
    pieces = [o for rank in range(2) for o in ckpt.store.pieces(rank)]
    assert pieces
    if keep_payloads:
        recorded = [o.payload.state_digest for o in pieces]
        assert None not in recorded
        assert sorted(recorded) == sorted(taken)
    else:
        assert all(o.payload is None for o in pieces)
        assert taken == []


def test_recovery_to_specific_sequence():
    eng, app, job, lib, ckpt = run_checkpointed(n_iterations=6)
    committed = ckpt.committed()
    assert len(committed) >= 2
    recovery = RecoveryManager(ckpt.store, layout=app.layout)
    asp = recovery.restore_rank(0, seq=committed[0].seq)
    assert asp.data_footprint() > 0


def test_recovery_without_commit_rejected():
    store = CheckpointStore(2)
    recovery = RecoveryManager(store)
    with pytest.raises(RecoveryError):
        recovery.restore_all()


def test_failure_midrun_recovers_to_last_committed():
    """Kill a rank mid-run; recovery targets the last committed sequence,
    losing only the work since then."""
    spec = small_spec(period=1.0, footprint_mb=4, main_mb=2)
    eng = Engine()
    app = SyntheticApp(spec, n_iterations=50)  # would run long
    job = MPIJob(eng, 2, process_factory=app.process_factory(eng))
    lib = InstrumentationLibrary(TrackerConfig(timeslice=0.5)).install(job)
    ckpt = CheckpointEngine(job, lib, interval_slices=2)
    job.launch(app.make_body())

    eng.schedule(5.25, job.fail_rank, 1)
    eng.run(until=6.0)
    committed_before_failure = ckpt.store.latest_committed()
    assert committed_before_failure is not None
    recovery = RecoveryManager(ckpt.store, layout=app.layout)
    restored = recovery.restore_all()
    assert set(restored) == {0, 1}
    # the committed checkpoint predates the failure
    gc = ckpt.globals[committed_before_failure]
    assert gc.committed_at <= 5.25 + 1.0


def test_storage_factory_override():
    """Checkpointing to memory-speed storage (diskless style) commits
    faster than to SCSI disks."""
    spec = small_spec(period=1.0, footprint_mb=4, main_mb=2)

    def run_with(spec_disk):
        eng = Engine()
        app = SyntheticApp(spec, n_iterations=4)
        job = MPIJob(eng, 2, process_factory=app.process_factory(eng))
        lib = InstrumentationLibrary(TrackerConfig(timeslice=0.5)).install(job)
        ckpt = CheckpointEngine(
            job, lib, interval_slices=2,
            storage_factory=lambda rank: Disk(eng, spec_disk))
        job.launch(app.make_body())
        eng.run(detect_deadlock=True)
        return [gc.commit_latency for gc in ckpt.committed()]

    from repro.storage import SCSI_ULTRA320
    lat_ram = run_with(RAMDISK)
    lat_scsi = run_with(SCSI_ULTRA320)
    assert lat_ram and lat_scsi
    assert sum(lat_ram) < sum(lat_scsi)


def test_shared_node_disk_serializes_commits():
    """Two ranks per node sharing one disk (the rx2600 reality) commit
    slower than with a disk each -- the storage contention a deployment
    must budget for."""
    spec = small_spec(period=1.0, footprint_mb=8, main_mb=4)

    def run_with(factory_builder):
        eng = Engine()
        app = SyntheticApp(spec, n_iterations=4)
        job = MPIJob(eng, 2, process_factory=app.process_factory(eng))
        lib = InstrumentationLibrary(TrackerConfig(timeslice=0.5)).install(job)
        ckpt = CheckpointEngine(job, lib, interval_slices=2,
                                storage_factory=factory_builder(eng))
        job.launch(app.make_body())
        eng.run(detect_deadlock=True)
        return sum(gc.commit_latency for gc in ckpt.committed())

    def private(eng):
        return lambda rank: Disk(eng, name=f"d{rank}")

    def shared(eng):
        disks = {}
        return lambda rank: disks.setdefault(rank // 2, Disk(eng, name="node0"))

    assert run_with(shared) > run_with(private)


def test_engine_validation():
    eng = Engine()
    job = MPIJob(eng, 1)
    lib = InstrumentationLibrary().install(job)
    with pytest.raises(CheckpointError):
        CheckpointEngine(job, lib, interval_slices=0)
    with pytest.raises(CheckpointError):
        CheckpointEngine(job, lib, full_every=0)


def test_bytes_to_storage_accounted():
    eng, app, job, lib, ckpt = run_checkpointed()
    assert ckpt.bytes_to_storage() == sum(
        gc.total_bytes for gc in ckpt.globals.values())


@pytest.mark.parametrize("transport", ["estimate", "network"])
def test_bytes_to_storage_over_array_sinks(transport):
    """A striped sink counts its bytes like a disk: the engine's total is
    the sum over every member disk of every rank's array."""
    from repro.storage import SCSI_ULTRA320, StorageArray

    spec = small_spec(period=1.0, footprint_mb=4, main_mb=2)
    eng = Engine()
    app = SyntheticApp(spec, n_iterations=4)
    job = MPIJob(eng, 2, process_factory=app.process_factory(eng))
    lib = InstrumentationLibrary(TrackerConfig(timeslice=0.5)).install(job)
    ckpt = CheckpointEngine(
        job, lib, interval_slices=2, transport=transport,
        storage_factory=lambda rank: StorageArray(eng, 4, SCSI_ULTRA320))
    job.launch(app.make_body())
    eng.run(detect_deadlock=True)
    assert ckpt.committed()
    member_bytes = sum(d.bytes_written for r in range(job.nranks)
                       for d in ckpt.disk(r).disks)
    assert member_bytes > 0
    assert ckpt.bytes_to_storage() == member_bytes


def test_array_sinks_publish_their_member_disks_bytes():
    """A run over striped sinks publishes the storage bytes its member
    disks wrote, as a run over plain disks does."""
    from repro.obs import MetricsRegistry
    from repro.obs.publish import publish_run
    from repro.storage import StorageArray

    spec = small_spec(period=1.0, footprint_mb=4, main_mb=2)
    eng = Engine()
    app = SyntheticApp(spec, n_iterations=4)
    job = MPIJob(eng, 2, process_factory=app.process_factory(eng))
    lib = InstrumentationLibrary(TrackerConfig(timeslice=0.5)).install(job)
    ckpt = CheckpointEngine(job, lib, interval_slices=2,
                            storage_factory=lambda r: StorageArray(eng, 2))
    job.launch(app.make_body())
    eng.run(detect_deadlock=True)
    reg = MetricsRegistry()
    publish_run(reg, engine=eng, job=job, library=lib, ckpt=ckpt)
    written = sum(d.bytes_written for r in range(job.nranks)
                  for d in ckpt.disk(r).disks)
    assert written > 0
    assert reg.snapshot()["storage.bytes_written"]["value"] == written


def test_a_sink_shared_by_two_ranks_is_counted_once():
    """Two ranks on one node disk (the layout of
    test_shared_node_disk_serializes_commits): the engine's total and
    the published storage bytes are what that one disk wrote."""
    from repro.obs import MetricsRegistry
    from repro.obs.publish import publish_run

    spec = small_spec(period=1.0, footprint_mb=8, main_mb=4)
    eng = Engine()
    app = SyntheticApp(spec, n_iterations=4)
    job = MPIJob(eng, 2, process_factory=app.process_factory(eng))
    lib = InstrumentationLibrary(TrackerConfig(timeslice=0.5)).install(job)
    node_disk = Disk(eng, name="node0")
    ckpt = CheckpointEngine(job, lib, interval_slices=2,
                            storage_factory=lambda rank: node_disk)
    job.launch(app.make_body())
    eng.run(detect_deadlock=True)
    assert node_disk.bytes_written > 0
    assert ckpt.bytes_to_storage() == node_disk.bytes_written
    reg = MetricsRegistry()
    publish_run(reg, engine=eng, job=job, library=lib, ckpt=ckpt)
    snap = reg.snapshot()
    assert snap["storage.bytes_written"]["value"] == node_disk.bytes_written
    assert (snap["storage.node0.bytes_written"]["value"]
            == node_disk.bytes_written)
    assert ckpt.sinks() == [node_disk]

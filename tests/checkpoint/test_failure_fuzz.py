"""Failure-injection fuzzing: whenever and whoever fails, recovery from
the latest committed global checkpoint always reproduces a state every
rank actually held at a common instant.

Failures are delivered through :class:`repro.faults.FaultInjector`
(the same path the recovery driver uses), not by poking
``job.fail_rank`` directly."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.synthetic import SyntheticApp, small_spec
from repro.checkpoint import CheckpointEngine, RecoveryManager
from repro.faults import FaultEvent, FaultInjector, FaultKind, FaultPlan
from repro.instrument import InstrumentationLibrary, TrackerConfig
from repro.mpi import MPIJob
from repro.sim import Engine

SPEC = small_spec(name="fuzz", footprint_mb=6, main_mb=3, period=1.0,
                  passes=1.5, comm_mb=0.25)
NRANKS = 3
TIMESLICE = 0.5
INTERVAL = 2
# fixed post-failure grace: writes already queued at the failure instant
# may still commit within it, and nothing after it moves the store
GRACE = 0.25


@given(fail_time=st.floats(min_value=1.6, max_value=9.7),
       victim=st.integers(min_value=0, max_value=NRANKS - 1),
       full_every=st.integers(min_value=1, max_value=4))
@settings(max_examples=25, deadline=None)
def test_any_failure_recovers_to_consistent_committed_state(
        fail_time, victim, full_every):
    engine = Engine()
    app = SyntheticApp(SPEC, n_iterations=1000)
    job = MPIJob(engine, NRANKS, process_factory=app.process_factory(engine))
    lib = InstrumentationLibrary(TrackerConfig(timeslice=TIMESLICE)).install(job)
    ckpt = CheckpointEngine(job, lib, interval_slices=INTERVAL,
                            full_every=full_every)
    reference = {}

    def install_snap(ctx):
        tracker = lib.tracker(ctx.rank)

        def snap(record, trk, r=ctx.rank):
            if (record.index + 1) % INTERVAL == 0:
                reference[(r, record.index)] = \
                    trk.process.memory.state_digest()

        tracker.slice_listeners.insert(0, snap)

    job.init_hooks.append(install_snap)
    job.launch(app.make_body())
    plan = FaultPlan([FaultEvent(fail_time, FaultKind.CRASH, victim)])
    injector = FaultInjector(job, plan, disk_resolver=ckpt.disk,
                             stop_on_fatal=False)
    injector.arm()
    engine.run(until=fail_time + GRACE)

    assert injector.dead_ranks == [victim]
    assert not job.sim_processes[victim].alive

    seq = ckpt.store.latest_committed()
    if seq is None:
        # failed before any global commit: recovery is impossible, and
        # the store must say so rather than hand out half-written state
        with pytest.raises(Exception):
            RecoveryManager(ckpt.store, layout=app.layout).restore_all()
        return

    # the recovery point is committed data only -- it cannot postdate
    # anything that was durable by the end of the grace window, and the
    # chain serving it must start from a full checkpoint
    assert ckpt.globals[seq].committed_at <= fail_time + GRACE
    restored = RecoveryManager(ckpt.store, layout=app.layout).restore_all()
    assert set(restored) == set(range(NRANKS))
    for rank, asp in restored.items():
        want = reference[(rank, seq)]
        assert asp.state_digest() == want, \
            (rank, seq, fail_time, victim)
    for rank in range(NRANKS):
        chain = RecoveryManager(ckpt.store).recovery_chain(rank, seq)
        assert chain[0].kind == "full"

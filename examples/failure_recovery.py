#!/usr/bin/env python
"""Failure injection and rollback recovery.

The paper measures the *feasibility* of incremental checkpointing; this
example runs the checkpointer the measurements argue for:

1. a 4-rank application runs with the instrumentation attached and the
   coordinated checkpoint engine capturing an incremental checkpoint
   every few timeslices (full checkpoints periodically);
2. a node failure kills rank 2 mid-run;
3. recovery reads and verifies every rank's chain to the last
   *committed* global checkpoint once, rolls every rank back to it,
   and checks -- by state digest -- that the restored memory is
   bit-for-bit the state at capture time;
4. the lost work (time between the recovery point and the failure) is
   reported, the quantity the checkpoint interval trades off;
5. the job is **restarted on a fresh cluster** from the same chains
   and continues computing -- the full self-healing loop the paper's
   autonomic-computing motivation calls for.

Run:  python examples/failure_recovery.py
"""

from repro.apps.synthetic import SyntheticApp, small_spec
from repro.checkpoint import (CheckpointEngine, RecoveryManager,
                              RestartCoordinator, restore_address_space)
from repro.instrument import InstrumentationLibrary, TrackerConfig
from repro.mpi import MPIJob
from repro.sim import Engine
from repro.units import fmt_bytes

NRANKS = 4
TIMESLICE = 0.5
CHECKPOINT_EVERY = 4        # timeslices
FAILURE_TIME = 9.3          # seconds into the run


def main() -> None:
    engine = Engine()
    spec = small_spec(name="demo-app", footprint_mb=16, main_mb=8,
                      period=2.0, passes=2.0, comm_mb=1.0)
    app = SyntheticApp(spec, n_iterations=1000)  # would run "forever"
    job = MPIJob(engine, NRANKS, process_factory=app.process_factory(engine))
    library = InstrumentationLibrary(TrackerConfig(timeslice=TIMESLICE),
                                     app_name=spec.name).install(job)
    ckpt = CheckpointEngine(job, library, interval_slices=CHECKPOINT_EVERY,
                            full_every=8)

    # keep reference digests so recovery can be verified
    reference = {}

    def install_reference_hook(ctx):
        tracker = library.tracker(ctx.rank)

        def snap(record, trk, rank=ctx.rank):
            if (record.index + 1) % CHECKPOINT_EVERY == 0:
                reference[(rank, record.index)] = \
                    trk.process.memory.state_digest()

        tracker.slice_listeners.insert(0, snap)

    job.init_hooks.append(install_reference_hook)
    job.launch(app.make_body())

    print(f"running {spec.name!r} on {NRANKS} ranks, checkpoint every "
          f"{CHECKPOINT_EVERY * TIMESLICE:.0f} s ...")
    engine.schedule(FAILURE_TIME, job.fail_rank, 2)
    engine.run(until=FAILURE_TIME + 0.5)

    print(f"\n*** rank 2 failed at t={FAILURE_TIME} s ***\n")
    committed = ckpt.committed()
    print("global checkpoints committed before the failure:")
    for gc in committed:
        print(f"  seq {gc.seq:3d}  {gc.kind:11s} {fmt_bytes(gc.total_bytes):>10s}"
              f"  committed at t={gc.committed_at:6.2f} s "
              f"(latency {gc.commit_latency * 1e3:.1f} ms)")

    seq = ckpt.store.latest_committed()
    # every rank's chain, digest-verified once; both the restore below
    # and the restart further down use these exact checkpoints
    chains = RecoveryManager(ckpt.store).recovery_chains(seq)

    print(f"\nrolling back ALL ranks to committed sequence {seq}:")
    ok = True
    for rank, chain in sorted(chains.items()):
        asp = restore_address_space(chain, layout=app.layout)
        match = asp.state_digest() == reference[(rank, seq)]
        ok &= match
        print(f"  rank {rank}: restored "
              f"{fmt_bytes(asp.data_footprint()):>9s} of data memory -- "
              f"{'VERIFIED identical to capture-time state' if match else 'MISMATCH'}")
    if not ok:
        raise SystemExit("recovery verification failed")

    recovery_point = ckpt.globals[seq].requested_at
    lost = FAILURE_TIME - recovery_point
    print(f"\nrecovery point t={recovery_point:.2f} s; failure t={FAILURE_TIME} s")
    print(f"work lost to the failure: {lost:.2f} s "
          f"(bounded by the checkpoint interval of "
          f"{CHECKPOINT_EVERY * TIMESLICE:.1f} s)")
    print(f"total checkpoint traffic: {fmt_bytes(ckpt.bytes_to_storage())}")

    # -- restart and continue -------------------------------------------------
    print(f"\nrestarting the job on a fresh cluster from sequence {seq} ...")
    engine2 = Engine()
    app2 = SyntheticApp(spec, n_iterations=3)
    coordinator = RestartCoordinator(app2, chains)
    job2 = coordinator.restart(engine2)
    InstrumentationLibrary(TrackerConfig(timeslice=TIMESLICE),
                           app_name=spec.name).install(job2)
    verified = []

    def check(ctx):
        verified.append(ctx.memory.state_digest() == reference[(ctx.rank, seq)])

    procs = coordinator.launch(job2, on_restored=check)
    engine2.run(detect_deadlock=True)
    if not all(verified) or any(p.exception for p in procs):
        raise SystemExit("restart failed")
    print(f"restored state verified on all {NRANKS} ranks; application "
          f"continued for {app2.contexts[0].iterations} more iterations "
          f"({engine2.now:.1f} s of simulated time) and completed cleanly")


if __name__ == "__main__":
    main()

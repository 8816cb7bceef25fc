"""Recovery correctness when a failure lands *mid-drain*.

With the network transport a checkpoint is not durable at capture time:
its frames drain through the NIC and storage port for tens of
milliseconds.  A fatal fault inside that window must never recover from
the half-written sequence -- the store holds the pieces, but the global
commit marker is missing, so recovery rolls back to the last sequence
that was fully durable, and the restored address spaces are
bit-identical to the failure-free run at that point.

A transient DISK fault inside the window exercises the poisoning path
instead: the losing rank's piece (and any deltas stacked on it) is
discarded, the sequence never commits anywhere, and the rank's next
capture is forced full so its chain re-heads.
"""

from repro.apps.synthetic import small_spec
from repro.cluster.experiment import ExperimentConfig
from repro.faults import FaultEvent, FaultKind, FaultPlan, run_with_failures

SPEC = small_spec(name="middrain", footprint_mb=6, main_mb=3, period=1.0,
                  passes=1.5, comm_mb=0.25, sub_bursts=1)
CONFIG = ExperimentConfig(spec=SPEC, nranks=3, timeslice=0.5,
                          run_duration=10.0)
INTERVAL = 2

# with interval_slices=2 / full_every=3 the captures land at t = 1, 2,
# 3, ... and the network transport drains each one in ~30-55 ms (the
# failure-free probe below asserts that window), so a fault at
# CAPTURE_T + 0.02 is strictly inside seq MID_SEQ's drain
MID_SEQ = 7
CAPTURE_T = 4.0


def run_reference():
    return run_with_failures(CONFIG, FaultPlan.none(),
                             interval_slices=INTERVAL, full_every=3,
                             ckpt_transport="network")


def test_drain_window_is_open_at_the_fault_time():
    """The premise: under the network transport, commit trails capture."""
    ref = run_reference()
    life = ref.lives[0]
    gc = next(g for g in life.committed if g.seq == MID_SEQ)
    assert gc.requested_at == CAPTURE_T
    assert gc.committed_at > CAPTURE_T + 0.02  # the fault lands mid-drain
    assert life.transport_stats.in_flight_bytes == 0


def test_crash_mid_drain_recovers_from_last_committed_seq():
    plan = FaultPlan([FaultEvent(CAPTURE_T + 0.02, FaultKind.CRASH, 1)])
    # the restore raises RecoveryError if it does not reproduce the
    # captured state
    res = run_with_failures(CONFIG, plan, interval_slices=INTERVAL,
                            full_every=3, ckpt_transport="network")
    assert len(res.failures) == 1
    rec = res.failures[0]
    life0 = res.lives[0]

    # every rank stored its piece for the mid-drain sequence...
    for rank in range(CONFIG.nranks):
        assert any(o.seq == MID_SEQ for o in life0.store.pieces(rank))
    # ...but the sequence never committed: the drain was cut short
    assert MID_SEQ not in life0.store.committed_sequences()
    assert life0.transport_stats.in_flight_bytes > 0  # died mid-flight

    # recovery used the last *fully durable* sequence, not the fresh one
    assert rec.recovery_life == 0
    assert rec.recovered_seq == life0.store.latest_committed() < MID_SEQ

    # and the restored memory is bit-identical to the failure-free run's
    # state at that capture boundary: the restore reproduced the digest
    # its chain head recorded, which is the reference run's
    ref = run_reference().lives[0]
    for rank in range(CONFIG.nranks):
        got = life0.store.find(rank, rec.recovered_seq).payload.state_digest
        want = ref.store.find(rank, rec.recovered_seq).payload.state_digest
        assert want is not None and got == want, rank


def test_disk_fault_mid_drain_poisons_sequence_and_forces_full():
    plan = FaultPlan([FaultEvent(CAPTURE_T + 0.005, FaultKind.DISK, 1)])
    res = run_with_failures(CONFIG, plan, interval_slices=INTERVAL,
                            full_every=3, ckpt_transport="network")
    assert res.failures == []          # transient: the job sails on
    life = res.lives[0]
    assert life.write_failures == [(1, MID_SEQ)]
    assert life.transport_stats.failed_pieces == 1

    committed = life.store.committed_sequences()
    assert MID_SEQ not in committed    # poisoned everywhere, not just rank 1
    assert any(s > MID_SEQ for s in committed)  # later sequences recovered

    # the losing rank discarded the piece and re-headed with a full...
    r1 = {o.seq: o.kind for o in life.store.pieces(1)}
    assert MID_SEQ not in r1
    next_seq = min(s for s in r1 if s > MID_SEQ)
    assert r1[next_seq] == "full"
    # ...while an unaffected rank kept its piece and stayed incremental
    r0 = {o.seq: o.kind for o in life.store.pieces(0)}
    assert r0[MID_SEQ] == "full"       # full_every=3 made seq 7 a full
    assert r0[next_seq] == "incremental"

    # the recovery chain at the latest commit is intact for every rank
    latest = life.store.latest_committed()
    for rank in range(CONFIG.nranks):
        chain = life.store.chain(rank, upto_seq=latest)
        assert chain and chain[0].kind == "full"
        assert any(o.seq == latest for o in chain)

"""Fault runs over the diskless transport: checkpoints live in a buddy's
bounded memory, so every life retires superseded chains as each full
checkpoint commits, exactly as run_experiment does."""

from repro.cluster.experiment import paper_config, run_experiment
from repro.faults import FaultEvent, FaultKind, FaultPlan, run_with_failures

# four 1000 MB fulls per rank outgrow the 4 GiB buddy sink unless the
# chains they supersede are collected
CONFIG = paper_config("sage-1000MB", nranks=2, timeslice=1.0,
                      run_duration=40.0, ckpt_transport="diskless",
                      ckpt_interval_slices=1, ckpt_full_every=4)


def test_fault_free_diskless_run_retires_chains_like_run_experiment():
    res = run_with_failures(CONFIG, FaultPlan.none())
    ref = run_experiment(CONFIG)
    assert len(res.lives) == 1 and not res.failures
    life = res.lives[0]
    for rank in range(CONFIG.nranks):
        assert life.logs[rank].records == ref.logs[rank].records
    assert life.transport_stats.frames == ref.transport_stats.frames
    assert life.committed == ref.ckpt.committed()
    assert ref.ckpt.bytes_reclaimed > 0
    # only the newest full's chain is left, and only its sequences are
    # still restorable cuts
    last_full = max(gc.seq for gc in life.committed if gc.kind == "full")
    for rank in range(CONFIG.nranks):
        assert life.store.pieces(rank)[0].seq == last_full
    assert life.store.committed_sequences()[0] == last_full


def test_walk_back_past_a_collected_chain_restarts_from_scratch():
    # rank 1's newest full is flipped, then rank 0 crashes: both
    # committed sequences on that full are rejected, and the older ones
    # were collected, so nothing restorable is left
    plan = FaultPlan([
        FaultEvent(17.6, FaultKind.FLIP, 1, seq=16),
        FaultEvent(18.4, FaultKind.CRASH, 0)])
    res = run_with_failures(CONFIG, plan)
    assert len(res.failures) == 1
    assert res.failures[0].recovered_seq is None
    assert [(c.rank, c.seq, c.reason, c.rejected_seq)
            for c in res.corruptions] == [
        (1, 16, "digest-mismatch", 17), (1, 16, "digest-mismatch", 16)]
    assert not any(c.reason == "missing-base" for c in res.corruptions)
    assert res.lives[-1].iterations > 0

"""The fault-propagation matrix: every (corruption kind x chain
position x detection path) cell either *detects and recovers* -- the
restored state is bit-identical to the failure-free reference at the
recovered checkpoint -- or is *provably harmless*.

Layout under the matrix config (timeslice 0.5, capture every 2 slices,
full every 5 captures): pieces land at seqs 1(full), 3, 5, 7, 9,
11(full), 13, ...; a crash at t=5.3 sees committed sequences 1..9.

Matrix cells with a crash at 5.3:

==========  ===================  =================================
position    corrupted piece      expected recovery
==========  ===================  =================================
head        seq 1 (the full)     nothing verifies -> from scratch
mid-chain   seq 5 (delta)        walk back to seq 3
newest      seq 9 (delta)        walk back to seq 7
==========  ===================  =================================

each for all three corruption kinds (flip / truncate / drop).  The
harmless cells: corruption with no subsequent crash (scan-only), and
corruption of a delta superseded by a later full before the crash.
"""

import pytest

from repro.apps.synthetic import small_spec
from repro.cluster.experiment import ExperimentConfig
from repro.faults import FaultEvent, FaultKind, FaultPlan, run_with_failures

SPEC = small_spec(name="matrix", footprint_mb=6, main_mb=3, period=1.0,
                  passes=1.5, comm_mb=0.25, sub_bursts=1)
CONFIG = ExperimentConfig(spec=SPEC, nranks=3, timeslice=0.5,
                          run_duration=7.0)
INTERVAL, FULL_EVERY = 2, 5
VICTIM = 1
CRASH = FaultEvent(5.3, FaultKind.CRASH, 0)


def run_matrix(plan, config=CONFIG, **kw):
    kw.setdefault("interval_slices", INTERVAL)
    kw.setdefault("full_every", FULL_EVERY)
    return run_with_failures(config, plan, **kw)


@pytest.fixture(scope="module")
def reference():
    """Failure-free run: the ground truth for every recovered state."""
    return run_matrix(FaultPlan.none())


def corruption(kind, time, seq):
    return FaultEvent(time, kind, VICTIM, seq=seq)


def assert_heads_match(res, reference, seq, nranks):
    """Every rank's life-0 piece at ``seq`` recorded the same capture
    digest as the reference run's."""
    for rank in range(nranks):
        got = res.lives[0].store.find(rank, seq).payload.state_digest
        want = reference.lives[0].store.find(rank, seq).payload.state_digest
        assert want is not None and got == want, (rank, seq)


KINDS = [FaultKind.FLIP, FaultKind.TRUNCATE, FaultKind.DROP]
# (corruption target seq, corruption time, expected recovered seq)
POSITIONS = [
    pytest.param(1, 4.6, None, id="head-full"),
    pytest.param(5, 4.6, 3, id="mid-delta"),
    pytest.param(9, 5.1, 7, id="newest-delta"),
]


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
@pytest.mark.parametrize("seq,t_corrupt,want_seq", POSITIONS)
def test_matrix_detects_and_recovers_bit_identical(kind, seq, t_corrupt,
                                                   want_seq, reference):
    plan = FaultPlan([corruption(kind, t_corrupt, seq), CRASH])
    res = run_matrix(plan)

    # exactly one failure, and the job still completed
    assert len(res.failures) == 1
    rec = res.failures[0]
    assert res.lives[-1].iterations > 0

    # detection: the poisoned candidate(s) were rejected with records
    assert res.corruptions, "corruption went undetected"
    assert all(c.rank == VICTIM and c.life == 0 for c in res.corruptions)
    rejected = {c.rejected_seq for c in res.corruptions}
    assert max(rejected) == 9      # the newest committed seq was refused

    if want_seq is None:
        # the full at the head of the chain is gone: nothing verifies
        assert rec.recovered_seq is None
        assert res.metrics.from_scratch == 1
        assert rejected == {1, 3, 5, 7, 9}
    else:
        # walk-back: newest committed sequence whose chain verifies
        assert (rec.recovery_life, rec.recovered_seq) == (0, want_seq)
        # recovery never trusted anything newer than the intact prefix
        assert min(rejected) == want_seq + 2
        # bit-identical restore against the failure-free reference: each
        # restore reproduced its chain head's capture digest (or the run
        # would have raised), and that digest is the reference's
        assert_heads_match(res, reference, want_seq, CONFIG.nranks)
    assert res.metrics.corruptions_detected == len(res.corruptions)
    assert res.metrics.integrity_walkbacks == len(rejected)


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
def test_matrix_harmless_without_a_crash(kind, reference):
    # scan-only cell: the corruption sits in the store, the job never
    # needs it -- the run is bit-identical to the failure-free one
    res = run_matrix(FaultPlan([corruption(kind, 4.6, 5)]))
    assert not res.failures and not res.corruptions
    assert len(res.lives) == 1
    assert res.final_time == reference.final_time
    for rank in range(CONFIG.nranks):
        assert (res.lives[0].logs[rank].records
                == reference.lives[0].logs[rank].records)
    # ...but a scan of the corrupted epoch still tells the truth (the
    # default scan follows the newest full, which is intact)
    outcome = res.lives[0].store.verify_chain(VICTIM, upto_seq=5,
                                              require_seq=5)
    assert not outcome.intact


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
def test_matrix_harmless_when_superseded_by_a_later_full(kind):
    # corrupt a delta, then crash after the NEXT full checkpoint (seq
    # 11 at t=6) commits: the recovery chain starts at the new full, so
    # the poisoned piece is unreachable -- no walk-back, no rejection
    config = ExperimentConfig(spec=SPEC, nranks=3, timeslice=0.5,
                              run_duration=12.0)
    plan = FaultPlan([corruption(kind, 4.6, 5),
                      FaultEvent(6.8, FaultKind.CRASH, 0)])
    res = run_matrix(plan, config=config)
    assert len(res.failures) == 1
    rec = res.failures[0]
    assert (rec.recovery_life, rec.recovered_seq) == (0, 11)
    assert not res.corruptions     # the scan never had to reject anything
    assert res.metrics.integrity_walkbacks == 0
    assert res.lives[-1].iterations > 0


def test_corruption_of_uncommitted_tail_never_serves_recovery():
    # corrupt the piece stored at t=5 (seq 9) BEFORE its commit lands,
    # then crash: commit bookkeeping is oblivious (the fault is silent)
    # but verification still refuses the poisoned sequence
    plan = FaultPlan([corruption(FaultKind.FLIP, 5.01, 9), CRASH])
    res = run_matrix(plan)
    rec = res.failures[0]
    assert rec.recovered_seq == 7
    assert 9 in {c.rejected_seq for c in res.corruptions}


def test_flipped_newest_delta_recovers_from_the_intact_prefix():
    # trusting the commit markers would restore a state that never
    # existed; verification rejects the flipped newest delta and the
    # run recovers from the one before it
    plan = FaultPlan([corruption(FaultKind.FLIP, 5.1, 9), CRASH])
    res = run_matrix(plan)
    assert res.failures[0].recovered_seq == 7
    assert res.lives[-1].iterations > 0


def test_dropped_newest_piece_walks_back_cleanly():
    # a DROPPED tail piece leaves a chain that cannot reach the
    # committed sequence: verification rejects it and walks back
    plan = FaultPlan([corruption(FaultKind.DROP, 5.1, 9), CRASH])
    res = run_matrix(plan)
    assert res.failures[0].recovered_seq == 7


# -- the same matrix over sub-page (dcp) block pieces -------------------------

DCP_CONFIG = ExperimentConfig(spec=SPEC, nranks=3, timeslice=0.5,
                              run_duration=7.0,
                              ckpt_block_size=64)


@pytest.fixture(scope="module")
def dcp_reference():
    """Failure-free dcp run: ground truth for the dcp matrix cells."""
    return run_matrix(FaultPlan.none(), config=DCP_CONFIG)


def test_dcp_reference_chains_are_block_granular(dcp_reference):
    # the cells below only mean something if the deltas really are
    # block pieces riding the same verified chains
    store = dcp_reference.lives[0].store
    kinds = {o.kind for o in store.pieces(VICTIM)}
    assert "dcp" in kinds and "full" in kinds
    assert "incremental" not in kinds


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
@pytest.mark.parametrize("seq,t_corrupt,want_seq", POSITIONS)
def test_dcp_matrix_detects_and_recovers_bit_identical(kind, seq, t_corrupt,
                                                       want_seq,
                                                       dcp_reference):
    plan = FaultPlan([corruption(kind, t_corrupt, seq), CRASH])
    res = run_matrix(plan, config=DCP_CONFIG)

    assert len(res.failures) == 1
    rec = res.failures[0]
    assert res.lives[-1].iterations > 0

    assert res.corruptions, "corruption of a block piece went undetected"
    assert all(c.rank == VICTIM and c.life == 0 for c in res.corruptions)
    rejected = {c.rejected_seq for c in res.corruptions}
    assert max(rejected) == 9

    if want_seq is None:
        assert rec.recovered_seq is None
        assert res.metrics.from_scratch == 1
        assert rejected == {1, 3, 5, 7, 9}
    else:
        assert (rec.recovery_life, rec.recovered_seq) == (0, want_seq)
        assert min(rejected) == want_seq + 2
        # bit-identical block-granular restore vs the failure-free run
        assert_heads_match(res, dcp_reference, want_seq, DCP_CONFIG.nranks)
    assert res.metrics.corruptions_detected == len(res.corruptions)
    assert res.metrics.integrity_walkbacks == len(rejected)


def test_dcp_matrix_matches_page_mode_outcomes(reference, dcp_reference):
    # same physics, different piece granularity: the failure-free dcp
    # run commits the same sequences and ends at the same sim time
    assert ([g.seq for g in dcp_reference.lives[0].committed]
            == [g.seq for g in reference.lives[0].committed])
    assert dcp_reference.final_time == reference.final_time


def test_integrity_bandwidth_charges_verified_restore_cost():
    plan = FaultPlan([CRASH])
    base = run_matrix(plan)
    charged = run_matrix(plan, integrity_bandwidth=100e6)
    r0, r1 = base.failures[0], charged.failures[0]
    assert r1.recovered_seq == r0.recovered_seq
    assert r1.restore_time > r0.restore_time
    # deterministic: the surcharge is exactly chain-bytes / bandwidth
    chain = base.lives[0].store.chain(0, upto_seq=r0.recovered_seq)
    surcharge = sum(o.nbytes for o in chain) / 100e6
    assert r1.restore_time == pytest.approx(r0.restore_time + surcharge)

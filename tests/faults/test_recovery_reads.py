"""Recovery reads each chain once: the walk-back's verified chains are
the ones the restore time is charged for and the restarted ranks apply.

One crash after a flipped piece (the corruption matrix's newest-delta
cell): pieces land at seqs 1 (full), 3, 5, 7, 9; the flip poisons rank
1's seq 9, so the walk-back rejects seq 9 and recovers to seq 7.
"""

from collections import Counter

from repro.apps.synthetic import small_spec
from repro.checkpoint import restart as restart_mod
from repro.cluster.experiment import ExperimentConfig
from repro.faults import FaultEvent, FaultKind, FaultPlan, run_with_failures
from repro.storage import integrity

SPEC = small_spec(name="reads", footprint_mb=6, main_mb=3, period=1.0,
                  passes=1.5, comm_mb=0.25, sub_bursts=1)
CONFIG = ExperimentConfig(spec=SPEC, nranks=3, timeslice=0.5,
                          run_duration=7.0)
PLAN = FaultPlan([FaultEvent(5.1, FaultKind.FLIP, 1, seq=9),
                  FaultEvent(5.3, FaultKind.CRASH, 0)])


def test_each_served_chain_is_hashed_once_and_applied_as_verified(
        monkeypatch):
    hashed = Counter()          # (rank, seq) -> piece_digest calls
    hashed_payloads = {}        # (rank, seq) -> the payload hashed
    applied = []                # the chains the resume bodies applied
    digest, apply_chain = integrity.piece_digest, restart_mod.apply_chain

    def counting_digest(rank, seq, kind, nbytes, payload=None):
        hashed[(rank, seq)] += 1
        hashed_payloads[(rank, seq)] = payload
        return digest(rank, seq, kind, nbytes, payload)

    def recording_apply(memory, chain, strict=True):
        applied.append(chain)
        return apply_chain(memory, chain, strict=strict)

    # write-time digests go through the store's own import, so only
    # verification reads are counted here
    monkeypatch.setattr(integrity, "piece_digest", counting_digest)
    monkeypatch.setattr(restart_mod, "apply_chain", recording_apply)
    res = run_with_failures(CONFIG, PLAN, interval_slices=2, full_every=5)

    assert len(res.failures) == 1
    rec = res.failures[0]
    assert (rec.recovery_life, rec.recovered_seq) == (0, 7)
    assert {c.rejected_seq for c in res.corruptions} == {9}

    # one recovery decision: every (rank, full head 1) chain is hashed
    # once, at the newest candidate (seq 9), up to its first bad piece;
    # the restore time and the resume bodies hash nothing
    assert hashed == Counter({(rank, seq): 1 for rank in range(3)
                              for seq in (1, 3, 5, 7, 9)})

    # the resume bodies applied exactly the verified payload objects
    store = res.lives[0].store
    assert len(applied) == CONFIG.nranks
    for rank in range(CONFIG.nranks):
        stored = store.chain(rank, upto_seq=7)
        assert [p.seq for p in stored] == [1, 3, 5, 7]
        chain = next(c for c in applied if c[0] is stored[0].payload)
        assert len(chain) == len(stored)
        for ckpt, piece in zip(chain, stored):
            assert ckpt is piece.payload
            assert ckpt is hashed_payloads[(rank, piece.seq)]

"""Property: a verified chain's prefix outcome needs no second hashing.

The recovery walk-back verifies each ``(rank, full head)`` chain once, at
the newest candidate it serves, and derives every older candidate's
outcome with :func:`~repro.storage.integrity.prefix_verification`.  The
derivation must equal :func:`~repro.storage.integrity.verify_chain` run
on the truncated chain -- same pieces, reasons and ``missing-target``
rule -- for every committed sequence, whatever silent corruption (FLIP,
TRUNCATE, DROP) hit whichever pieces.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import CheckpointStore
from repro.storage.integrity import prefix_verification, verify_chain
from tests.storage.test_integrity import make_ckpt

corruptions = st.lists(
    st.tuples(st.sampled_from(["flip", "truncate", "drop"]),
              st.integers(0, 10**6), st.integers(0, 2**16)),
    max_size=3)


@settings(max_examples=150, deadline=None)
@given(nseqs=st.integers(1, 10), fulls=st.sets(st.integers(1, 9)),
       hits=corruptions)
def test_prefix_equals_verify_chain_on_the_truncated_chain(nseqs, fulls,
                                                           hits):
    store = CheckpointStore(1)
    seqs = [2 * i + 1 for i in range(nseqs)]
    for i, seq in enumerate(seqs):
        kind = "full" if i == 0 or i in fulls else "incremental"
        ckpt = make_ckpt(seq, kind, version0=seq)
        store.put(0, seq, kind, ckpt.nbytes, payload=ckpt,
                  stored_at=float(seq))
        store.mark_committed(seq)
    for how, pick, seed in hits:
        pieces = store.pieces(0)
        if not pieces:
            break
        seq = pieces[pick % len(pieces)].seq
        if how == "flip":
            store.flip_bits(0, seq, seed=seed)
        elif how == "truncate":
            store.truncate_piece(0, seq)
        else:
            store.drop_piece(0, seq)

    for newest in store.committed_sequences():
        chain = store.chain(0, upto_seq=newest)
        outcome = store.verify_chain(0, upto_seq=newest, require_seq=newest)
        for seq in store.committed_sequences():
            if seq > newest:
                break
            want = verify_chain(0, [o for o in chain if o.seq <= seq],
                                target_seq=seq, require_seq=seq)
            assert prefix_verification(outcome, seq) == want, (newest, seq)
            if chain and chain[0].seq <= seq:
                # same full head: what the walk-back reads for ``seq``
                assert want == store.verify_chain(0, upto_seq=seq,
                                                  require_seq=seq)

"""Property tests for chain verification under random corruption sets.

Hypothesis drives random chains (length, payload shapes) and random
corruption sets (flip / truncate / drop at random positions) and checks
the two headline invariants against a straight-line oracle:

- the verified prefix is *maximal*: it contains every piece up to (and
  excluding) the first one an oracle can prove poisoned, and nothing
  after it;
- the verified prefix never includes a corrupted piece;
- the ledger (``total_bytes``/``count``) stays conserved -- equal to
  the sum over the pieces actually held -- after any mix of corruption
  and GC rollback (``store.truncate`` at a committed full boundary).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint.snapshot import Checkpoint, Payload, SegmentRecord
from repro.storage import CheckpointStore

PAGE = 128


def make_ckpt(seq, kind, npages):
    return Checkpoint(
        seq=seq, kind=kind, taken_at=float(seq), page_size=PAGE,
        geometry=(SegmentRecord(sid=1, kind="data", base=0, npages=npages),),
        payloads=(Payload(
            sid=1,
            indices=np.arange(npages, dtype=np.int64),
            versions=np.arange(seq, seq + npages, dtype=np.uint64)),))


def build_chain(data):
    """One rank, one full head, incremental tail -- the shape the
    oracle below can reason about exactly."""
    n = data.draw(st.integers(min_value=1, max_value=8), label="n_pieces")
    seqs = [1 + 2 * i for i in range(n)]
    store = CheckpointStore(1)
    for i, seq in enumerate(seqs):
        kind = "full" if i == 0 else "incremental"
        npages = data.draw(st.integers(min_value=1, max_value=4),
                           label=f"npages{seq}")
        ckpt = make_ckpt(seq, kind, npages)
        store.put(0, seq, kind, ckpt.nbytes, payload=ckpt,
                  stored_at=float(seq))
    return store, seqs


def draw_corruptions(data, seqs):
    """A map seq -> op with unique targets (interacting ops on the same
    piece are exercised by the unit tests; here positions vary)."""
    targets = data.draw(st.lists(st.sampled_from(seqs), unique=True,
                                 max_size=len(seqs)), label="targets")
    return {seq: data.draw(st.sampled_from(["flip", "truncate", "drop"]),
                           label=f"op@{seq}")
            for seq in targets}


def apply_corruptions(store, ops):
    for seq, op in sorted(ops.items()):
        if op == "flip":
            store.flip_bits(0, seq, seed=seq)
        elif op == "truncate":
            store.truncate_piece(0, seq)
        else:
            store.drop_piece(0, seq)


def oracle_verified(seqs, ops):
    """The maximal intact prefix, computed without digests: walk the
    surviving pieces in order; a piece verifies iff its content is
    untouched AND its predecessor in the surviving chain is exactly its
    predecessor in the original chain (anything else is a chain-break,
    a missing base, or a digest mismatch)."""
    surviving = [s for s in seqs if ops.get(s) != "drop"]
    verified, prev = [], None
    for s in surviving:
        if ops.get(s) in ("flip", "truncate"):
            break
        orig_idx = seqs.index(s)
        orig_prev = seqs[orig_idx - 1] if orig_idx else None
        if orig_prev != prev:
            break
        verified.append(s)
        prev = s
    return verified


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_verified_prefix_is_maximal_and_never_corrupt(data):
    store, seqs = build_chain(data)
    ops = draw_corruptions(data, seqs)
    apply_corruptions(store, ops)

    outcome = store.verify_chain(0, require_seq=seqs[-1])
    expected = oracle_verified(seqs, ops)

    assert list(outcome.verified) == expected
    # soundness: nothing corrupted or dropped ever verifies
    assert not set(outcome.verified) & set(ops)
    # intact means required tail reached with zero corruptions en route
    want_intact = expected == seqs
    assert outcome.intact == want_intact
    assert (outcome.first_bad is None) == want_intact


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_flip_alone_never_changes_the_ledger(data):
    store, seqs = build_chain(data)
    before = (store.total_bytes(), store.count())
    for seq in data.draw(st.lists(st.sampled_from(seqs), unique=True),
                         label="flips"):
        store.flip_bits(0, seq, seed=seq)
    # bit flips corrupt in place: size bookkeeping must not move
    assert (store.total_bytes(), store.count()) == before


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_ledger_conserved_after_corruption_and_rollback(data):
    nranks = data.draw(st.integers(min_value=1, max_value=3), label="nranks")
    store = CheckpointStore(nranks)
    n = data.draw(st.integers(min_value=2, max_value=6), label="rounds")
    full_at = {1, 7}
    seqs = [1 + 2 * i for i in range(n)]
    for seq in seqs:
        kind = "full" if seq in full_at else "incremental"
        for rank in range(nranks):
            ckpt = make_ckpt(seq + rank, kind, 2)
            store.put(rank, seq, kind, ckpt.nbytes, payload=ckpt,
                      stored_at=float(seq))
        store.mark_committed(seq)

    rank = data.draw(st.integers(min_value=0, max_value=nranks - 1),
                     label="victim")
    for seq, op in sorted(draw_corruptions(data, seqs).items()):
        if op == "flip":
            store.flip_bits(rank, seq, seed=seq)
        elif op == "truncate":
            store.truncate_piece(rank, seq)
        else:
            store.drop_piece(rank, seq)
        held = sum(o.nbytes for r in range(nranks) for o in store.pieces(r))
        assert store.total_bytes() == held

    # GC rollback to a committed full boundary, if one is still whole
    boundary = 7 if n >= 4 else 1
    if all(any(o.seq == boundary and o.kind == "full"
               for o in store.pieces(r)) for r in range(nranks)):
        for r in range(nranks):
            store.truncate(r, before_seq=boundary)
    held = sum(o.nbytes for r in range(nranks) for o in store.pieces(r))
    assert store.total_bytes() == held
    assert store.count() == sum(len(store.pieces(r))
                                for r in range(nranks))

"""Unit tests for checkpoint integrity: piece digests, verified chains,
and the silent-corruption primitives on the store."""

import numpy as np
import pytest

from repro.checkpoint.snapshot import Checkpoint, Payload, SegmentRecord
from repro.errors import StorageError
from repro.storage import CheckpointStore, piece_digest
from repro.storage.integrity import verify_chain

PAGE = 256


def make_ckpt(seq, kind, *, sid=1, npages=4, version0=1):
    indices = np.arange(npages, dtype=np.int64)
    versions = np.arange(version0, version0 + npages, dtype=np.uint64)
    return Checkpoint(seq=seq, kind=kind, taken_at=float(seq),
                      page_size=PAGE,
                      geometry=(SegmentRecord(sid=sid, kind="data", base=0,
                                              npages=npages),),
                      payloads=(Payload(sid=sid, indices=indices,
                                        versions=versions),))


def build_store(nranks=1, seqs=(1, 3, 5, 7), full_at=(1,)):
    store = CheckpointStore(nranks)
    for rank in range(nranks):
        for seq in seqs:
            kind = "full" if seq in full_at else "incremental"
            ckpt = make_ckpt(seq, kind)
            store.put(rank, seq, kind, ckpt.nbytes, payload=ckpt,
                      stored_at=float(seq))
    return store


# -- digests -------------------------------------------------------------------


def test_digest_is_deterministic_and_metadata_sensitive():
    ckpt = make_ckpt(1, "full")
    d = piece_digest(0, 1, "full", ckpt.nbytes, ckpt)
    assert d == piece_digest(0, 1, "full", ckpt.nbytes, ckpt)
    # every identity component matters: replayed pieces can't be renamed
    assert d != piece_digest(1, 1, "full", ckpt.nbytes, ckpt)
    assert d != piece_digest(0, 2, "full", ckpt.nbytes, ckpt)
    assert d != piece_digest(0, 1, "incremental", ckpt.nbytes, ckpt)
    assert d != piece_digest(0, 1, "full", ckpt.nbytes + 1, ckpt)
    assert d != piece_digest(0, 1, "full", ckpt.nbytes, None)


def test_digest_covers_payload_content():
    a = make_ckpt(1, "full")
    flipped = a.payloads[0].versions.copy()
    flipped[0] ^= 1
    b = Checkpoint(seq=a.seq, kind=a.kind, taken_at=a.taken_at,
                   page_size=a.page_size, geometry=a.geometry,
                   payloads=(Payload(sid=1,
                                     indices=a.payloads[0].indices,
                                     versions=flipped),))
    assert (piece_digest(0, 1, "full", a.nbytes, a)
            != piece_digest(0, 1, "full", b.nbytes, b))


def test_put_records_digest_and_chain_links():
    store = build_store(seqs=(1, 3, 5), full_at=(1,))
    full, inc3, inc5 = store.pieces(0)
    assert full.digest and full.prev_digest is None
    assert full.base_digest is None            # fulls stand alone
    assert inc3.prev_digest == full.digest
    assert inc3.base_digest == full.digest
    assert inc5.prev_digest == inc3.digest
    assert inc5.base_digest == full.digest


# -- chain verification --------------------------------------------------------


def test_clean_chain_verifies_end_to_end():
    store = build_store()
    outcome = store.verify_chain(0)
    assert outcome.intact
    assert outcome.verified == (1, 3, 5, 7)
    assert outcome.first_bad is None
    assert "verified up to seq 7" in outcome.summary()


def test_empty_chain_is_missing_base():
    store = CheckpointStore(1)
    outcome = store.verify_chain(0)
    assert not outcome.intact
    assert outcome.first_bad.reason == "missing-base"
    assert outcome.verified == ()


def test_replaced_piece_breaks_successor_links():
    # a piece whose own content re-hashes clean, but which is not the
    # piece the successor was chained to: chain-break, not mismatch
    store = build_store(seqs=(1, 3, 5), full_at=(1,))
    chain = store.pieces(0)
    impostor_ckpt = make_ckpt(3, "incremental", version0=99)
    other = CheckpointStore(1)
    other.put(0, 1, "full", chain[0].nbytes, payload=chain[0].payload)
    other.put(0, 3, "incremental", impostor_ckpt.nbytes,
              payload=impostor_ckpt)
    swapped = [chain[0], other.pieces(0)[1], chain[2]]
    outcome = verify_chain(0, swapped)
    assert not outcome.intact
    assert outcome.first_bad.seq == 5
    assert outcome.first_bad.reason == "chain-break"
    assert outcome.verified == (1, 3)


def test_require_seq_detects_silently_missing_tail():
    store = build_store()
    store.drop_piece(0, 7)
    outcome = store.verify_chain(0, require_seq=7)
    assert not outcome.intact
    assert outcome.first_bad.reason == "missing-target"
    assert outcome.verified == (1, 3, 5)       # the prefix is still good
    # without the requirement the shortened chain looks clean
    assert store.verify_chain(0).intact


# -- flip_bits -----------------------------------------------------------------


def test_flip_bits_is_detected_and_deterministic():
    a, b = build_store(), build_store()
    assert a.verify_chain(0).intact
    a.flip_bits(0, 5, seed=42)
    b.flip_bits(0, 5, seed=42)
    bad = a.verify_chain(0).first_bad
    assert bad.seq == 5 and bad.reason == "digest-mismatch"
    # deterministic: both stores corrupted identically
    pa, pb = a.find(0, 5).payload, b.find(0, 5).payload
    assert np.array_equal(pa.payloads[0].versions,
                          pb.payloads[0].versions)
    # chain verification stops at the flipped piece
    outcome = a.verify_chain(0)
    assert outcome.verified == (1, 3)
    assert outcome.first_bad.seq == 5


def test_flip_bits_different_seed_different_bits():
    a, b = build_store(), build_store()
    a.flip_bits(0, 5, seed=1)
    b.flip_bits(0, 5, seed=2)
    same = np.array_equal(a.find(0, 5).payload.payloads[0].versions,
                          b.find(0, 5).payload.payloads[0].versions)
    assert not same


def test_flip_bits_on_payload_free_piece_is_a_noop():
    store = CheckpointStore(1)
    store.put(0, 1, "full", 4096, payload=None)
    assert store.flip_bits(0, 1) is None
    assert store.verify_chain(0).intact


def test_flip_bits_validates_arguments():
    store = build_store()
    with pytest.raises(StorageError):
        store.flip_bits(0, 5, nbits=0)
    with pytest.raises(StorageError):
        store.flip_bits(0, 99)


# -- truncate_piece (the ledger-consistency audit) -----------------------------


def test_truncate_updates_ledger_and_breaks_equality():
    store = build_store()
    original = store.find(0, 5)
    before = store.total_bytes()
    truncated = store.truncate_piece(0, 5)
    # the ledger reflects the bytes actually held, immediately
    assert store.total_bytes() == before - (original.nbytes
                                            - truncated.nbytes)
    assert truncated.nbytes < original.nbytes
    # equality covers the declared size: a short piece is NOT the piece
    # that was written, even though rank/seq/kind agree
    assert truncated != original
    assert (truncated.rank, truncated.seq) == (original.rank, original.seq)
    # the recorded digest still describes the full write: mismatch
    bad = store.verify_chain(0).first_bad
    assert bad.seq == 5 and bad.reason == "digest-mismatch"
    # payload shrank consistently with the declared size
    assert truncated.payload.nbytes <= truncated.nbytes


def test_truncate_to_zero_keeps_count_but_drops_bytes():
    store = build_store(seqs=(1,), full_at=(1,))
    store.truncate_piece(0, 1, keep_bytes=0)
    assert store.count() == 1
    piece = store.find(0, 1)
    assert piece.nbytes <= 64 * len(piece.payload.geometry)
    assert store.verify_chain(0).first_bad.seq == 1


def test_truncate_bounds_checked():
    store = build_store()
    with pytest.raises(StorageError):
        store.truncate_piece(0, 5, keep_bytes=-1)
    with pytest.raises(StorageError):
        store.truncate_piece(0, 5,
                             keep_bytes=store.find(0, 5).nbytes + 1)


def test_gc_truncate_keeps_the_ledger_consistent():
    # regression for the ISSUE audit: after GC truncation at a
    # committed full boundary the ledger must equal the bytes of the
    # pieces actually held -- even when a corruption fault resized one
    # of the discarded pieces first
    store = build_store(seqs=(1, 3, 5, 7), full_at=(1, 7))
    store.mark_committed(7)
    store.truncate_piece(0, 3)              # corrupt a piece GC removes
    store.truncate(0, before_seq=7)
    assert [o.seq for o in store.pieces(0)] == [7]
    assert store.total_bytes() == store.find(0, 7).nbytes
    assert store.count() == 1


# -- drop_piece ----------------------------------------------------------------


def test_drop_breaks_the_successor_chain_link():
    store = build_store()
    store.mark_committed(1)
    store.mark_committed(5)
    dropped = store.drop_piece(0, 3)    # committed or not: silent loss
    assert dropped.seq == 3
    outcome = store.verify_chain(0)
    assert not outcome.intact
    # seq 5 linked to seq 3's digest; with 3 gone it links to 1
    assert outcome.first_bad.seq == 5
    assert outcome.first_bad.reason == "chain-break"
    assert outcome.verified == (1,)


def test_drop_full_head_loses_everything():
    store = build_store()
    store.drop_piece(0, 1)
    outcome = store.verify_chain(0)
    assert not outcome.intact
    assert outcome.first_bad.reason == "missing-base"


def test_drop_contrasts_with_discard_on_committed():
    store = build_store()
    store.mark_committed(7)
    with pytest.raises(StorageError):
        store.discard(0, 7)             # detected path refuses committed
    store.drop_piece(0, 7)              # silent loss doesn't ask
    assert store.find(0, 7) is None

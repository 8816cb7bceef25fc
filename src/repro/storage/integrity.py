"""Checkpoint integrity: content digests and verified chains.

A silently corrupted piece anywhere in an incremental chain poisons
every later restore -- the deltas stack on top of garbage and recovery
"succeeds" into a state that never existed.  This module gives the
store the machinery to make that impossible:

- :func:`piece_digest` -- a canonical blake2b digest over one stored
  piece (identity metadata + geometry + payload arrays), computed at
  write time and recomputed at verification time;
- *chain links* -- every piece records the digest of its predecessor in
  the rank's chain and, for incrementals, the digest of the full
  checkpoint heading its chain.  A piece that is silently dropped or
  replaced breaks the links of its successors even though their own
  content still hashes clean;
- :func:`verify_chain` -- walks a recovery chain head-to-tail and
  reports the longest intact prefix, the first bad piece, and why;
- :func:`prefix_verification` -- derives, without hashing anything, the
  outcome :func:`verify_chain` gives on a prefix of an already verified
  chain (the walk-back's older candidates under the same full head).

Verification is pure: it never mutates the store, and its outcome is a
deterministic function of the stored bytes -- the same corrupted store
yields the same report on every scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import blake2b
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.store import StoredObject

#: digest width in bytes (blake2b truncated; 128 bits is far beyond the
#: collision resistance silent-corruption detection needs)
DIGEST_SIZE = 16

#: modelled checksum throughput for integrity-checked restore cost
#: (blake2b on one modern core; feeds the feasibility comparison)
HASH_BANDWIDTH = 1_000_000_000.0  # B/s


def piece_digest(rank: int, seq: int, kind: str, nbytes: int,
                 payload=None) -> str:
    """Canonical digest of one stored piece.

    Covers the identity metadata (so a piece cannot be replayed under a
    different rank/sequence), the declared size (so a short write with a
    stale header cannot pass), and -- when the payload object is kept --
    the full geometry and unit arrays.
    """
    h = blake2b(digest_size=DIGEST_SIZE)
    h.update(f"{rank}|{seq}|{kind}|{nbytes}".encode())
    if payload is not None:
        h.update(f"|{payload.page_size}|{payload.taken_at!r}".encode())
        for rec in payload.geometry:
            h.update(f"g{rec.sid}|{rec.kind}|{rec.base}|{rec.npages}".encode())
        # sub-page pieces take a distinct tag (and the block size), so
        # they never collide with a page piece whose arrays happen to
        # match; page pieces keep the pre-dcp tag
        sub_page = payload.block_size != payload.page_size
        for p in payload.payloads:
            h.update((f"B{p.sid}|{len(p.indices)}|{payload.block_size}"
                      if sub_page else
                      f"p{p.sid}|{len(p.indices)}").encode())
            h.update(np.ascontiguousarray(p.indices, dtype=np.int64).tobytes())
            h.update(np.ascontiguousarray(p.versions,
                                          dtype=np.uint64).tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class PieceVerification:
    """Outcome of verifying one stored piece in chain context."""

    rank: int
    seq: int
    kind: str
    ok: bool
    #: "ok", "digest-mismatch", "chain-break", "base-mismatch",
    #: "missing-base", or "missing-target"
    reason: str = "ok"


@dataclass(frozen=True)
class ChainVerification:
    """Outcome of verifying one rank's recovery chain."""

    rank: int
    #: sequence the chain was asked to recover to (None: latest)
    target_seq: Optional[int]
    #: per-piece outcomes in chain order, stopping at the first bad one
    pieces: tuple[PieceVerification, ...]
    #: sequences of the longest intact prefix, chain order
    verified: tuple[int, ...]

    @property
    def intact(self) -> bool:
        return all(p.ok for p in self.pieces) and bool(self.pieces)

    @property
    def first_bad(self) -> Optional[PieceVerification]:
        for p in self.pieces:
            if not p.ok:
                return p
        return None

    @property
    def verified_upto(self) -> Optional[int]:
        """Newest sequence the intact prefix reaches, or None."""
        return self.verified[-1] if self.verified else None

    def summary(self) -> str:
        """One-line human verdict (the CLI's integrity-scan output)."""
        bad = self.first_bad
        if self.intact:
            return (f"rank {self.rank}: {len(self.verified)} piece(s) "
                    f"verified up to seq {self.verified_upto}")
        if bad is None:
            return f"rank {self.rank}: no recoverable chain (missing base)"
        return (f"rank {self.rank}: seq {bad.seq} {bad.reason}; intact "
                f"prefix ends at "
                f"{'nothing' if not self.verified else f'seq {self.verified_upto}'}")


def verify_chain(rank: int, chain: Sequence["StoredObject"],
                 target_seq: Optional[int] = None,
                 require_seq: Optional[int] = None) -> ChainVerification:
    """Verify a recovery chain: content digests plus predecessor/base
    links, head to tail, stopping at the first bad piece.

    ``require_seq`` additionally demands that the intact chain reach
    exactly that sequence -- the commit invariant guarantees a piece for
    every committed sequence, so a chain that verifies clean but stops
    short means the target piece was silently dropped.
    """
    pieces: list[PieceVerification] = []
    verified: list[int] = []

    def done() -> ChainVerification:
        return ChainVerification(rank=rank, target_seq=target_seq,
                                 pieces=tuple(pieces),
                                 verified=tuple(verified))

    if not chain:
        pieces.append(PieceVerification(
            rank=rank, seq=(-1 if require_seq is None else require_seq),
            kind="full", ok=False, reason="missing-base"))
        return done()

    head = chain[0]
    for i, obj in enumerate(chain):
        recomputed = piece_digest(obj.rank, obj.seq, obj.kind, obj.nbytes,
                                  obj.payload)
        if obj.digest is None or recomputed != obj.digest:
            pieces.append(PieceVerification(rank=rank, seq=obj.seq,
                                            kind=obj.kind, ok=False,
                                            reason="digest-mismatch"))
            return done()
        if i > 0:
            prev = chain[i - 1]
            if obj.prev_digest != prev.digest:
                pieces.append(PieceVerification(rank=rank, seq=obj.seq,
                                                kind=obj.kind, ok=False,
                                                reason="chain-break"))
                return done()
            if obj.base_digest != head.digest:
                pieces.append(PieceVerification(rank=rank, seq=obj.seq,
                                                kind=obj.kind, ok=False,
                                                reason="base-mismatch"))
                return done()
        pieces.append(PieceVerification(rank=rank, seq=obj.seq,
                                        kind=obj.kind, ok=True))
        verified.append(obj.seq)

    if require_seq is not None and (not verified
                                    or verified[-1] != require_seq):
        pieces.append(PieceVerification(rank=rank, seq=require_seq,
                                        kind="incremental", ok=False,
                                        reason="missing-target"))
    return done()


#: reasons that describe the chain as a whole rather than a stored piece
_CHAIN_REASONS = ("missing-base", "missing-target")


def prefix_verification(outcome: ChainVerification,
                        seq: int) -> ChainVerification:
    """What :func:`verify_chain` reports, with ``require_seq=seq``, on
    the pieces of ``outcome``'s chain with sequence at most ``seq`` --
    derived from ``outcome`` alone, hashing nothing.

    Exact because each piece's checks read only the piece, its
    predecessor and the chain head, and a prefix keeps all three: it
    passes and fails exactly the pieces ``outcome`` reports up to
    ``seq``.  A piece ``outcome`` never reached lies past its first bad
    piece, so past the prefix's too.  ``outcome`` must come from a
    chain verified up to at least ``seq``.
    """
    pieces: list[PieceVerification] = []
    verified: list[int] = []
    for p in outcome.pieces:
        if p.reason in _CHAIN_REASONS or p.seq > seq:
            break
        pieces.append(p)
        if not p.ok:
            break
        verified.append(p.seq)
    if not pieces:
        pieces.append(PieceVerification(rank=outcome.rank, seq=seq,
                                        kind="full", ok=False,
                                        reason="missing-base"))
    elif pieces[-1].ok and verified[-1] != seq:
        pieces.append(PieceVerification(rank=outcome.rank, seq=seq,
                                        kind="incremental", ok=False,
                                        reason="missing-target"))
    return ChainVerification(rank=outcome.rank, target_seq=seq,
                             pieces=tuple(pieces), verified=tuple(verified))

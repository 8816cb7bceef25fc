"""The logical checkpoint store: versioned per-rank chains plus global
commit markers for coordinated checkpoints.

A *chain* for one rank is a full checkpoint followed by incremental
deltas.  A *global* checkpoint with sequence number ``seq`` is
recoverable only once every rank's piece for ``seq`` is durable, at
which point the coordinator marks it committed; recovery always rolls
back to the latest committed sequence (never a half-written one).

Every piece stored through :meth:`CheckpointStore.put` carries a
blake2b content digest plus chain links (the predecessor's digest and,
for incrementals, the digest of the full heading the chain) -- see
:mod:`repro.storage.integrity`.  The ``flip_bits`` / ``truncate_piece``
/ ``drop_piece`` methods model *silent* media corruption: they mangle
the stored data without touching the recorded digests, exactly the
failure the verification layer exists to catch.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from repro.errors import StorageError
from repro.storage.integrity import (ChainVerification, piece_digest,
                                     verify_chain)


@dataclass(frozen=True)
class StoredObject:
    """One stored checkpoint piece.

    Equality covers the logical identity *and the declared size* --
    ``(rank, seq, kind, nbytes)`` -- so a truncated piece never compares
    equal to the object that was originally written.  The payload,
    timestamps, and integrity metadata are excluded: two stores holding
    the same logical chain compare piecewise equal even though their
    digests were recorded at different times.
    """

    rank: int
    seq: int
    kind: str           #: "full", "incremental", or "dcp"
    nbytes: int
    payload: Any = field(compare=False, default=None)
    stored_at: float = field(compare=False, default=0.0)
    #: blake2b digest of the piece as written (recomputable)
    digest: Optional[str] = field(compare=False, default=None)
    #: digest of the predecessor piece in this rank's chain at write time
    prev_digest: Optional[str] = field(compare=False, default=None)
    #: digest of the full checkpoint heading the chain (incrementals)
    base_digest: Optional[str] = field(compare=False, default=None)


class CheckpointStore:
    """In-memory model of stable storage for checkpoint chains."""

    KINDS = ("full", "incremental", "dcp")

    def __init__(self, nranks: int):
        if nranks < 1:
            raise StorageError(f"need at least one rank, got {nranks}")
        self.nranks = nranks
        self._chains: dict[int, list[StoredObject]] = {r: [] for r in range(nranks)}
        self._committed: list[int] = []

    # -- writes ---------------------------------------------------------------

    def put(self, rank: int, seq: int, kind: str, nbytes: int,
            payload: Any = None, stored_at: float = 0.0) -> StoredObject:
        """Store one rank's piece of global checkpoint ``seq``."""
        self._check_rank(rank)
        if kind not in self.KINDS:
            raise StorageError(f"unknown checkpoint kind {kind!r}")
        if nbytes < 0:
            raise StorageError(f"negative checkpoint size {nbytes}")
        chain = self._chains[rank]
        if chain and seq <= chain[-1].seq:
            raise StorageError(
                f"non-monotonic sequence {seq} for rank {rank} "
                f"(last stored {chain[-1].seq})")
        if not chain and kind != "full":
            raise StorageError(
                f"rank {rank}: chain must start with a full checkpoint")
        digest = piece_digest(rank, seq, kind, nbytes, payload)
        prev_digest = chain[-1].digest if chain else None
        base_digest = None
        if kind != "full":        # incremental and dcp deltas link to base
            for obj in reversed(chain):
                if obj.kind == "full":
                    base_digest = obj.digest
                    break
        obj = StoredObject(rank=rank, seq=seq, kind=kind, nbytes=nbytes,
                           payload=payload, stored_at=stored_at,
                           digest=digest, prev_digest=prev_digest,
                           base_digest=base_digest)
        chain.append(obj)
        return obj

    def mark_committed(self, seq: int) -> None:
        """Record that global checkpoint ``seq`` is fully durable.

        Every rank must have stored a piece with exactly this sequence.
        """
        for rank in range(self.nranks):
            if self.find(rank, seq) is None:
                raise StorageError(
                    f"cannot commit seq {seq}: rank {rank} has no piece for it")
        if self._committed and seq <= self._committed[-1]:
            raise StorageError(
                f"non-monotonic commit {seq} (last {self._committed[-1]})")
        self._committed.append(seq)

    # -- reads -----------------------------------------------------------------

    def chain(self, rank: int, upto_seq: Optional[int] = None) -> list[StoredObject]:
        """The recovery chain for ``rank``: the latest full checkpoint at
        or before ``upto_seq`` plus all later deltas up to it."""
        self._check_rank(rank)
        objs = self._chains[rank]
        if upto_seq is not None:
            objs = [o for o in objs if o.seq <= upto_seq]
        last_full = None
        for i, obj in enumerate(objs):
            if obj.kind == "full":
                last_full = i
        if last_full is None:
            return []
        return objs[last_full:]

    def latest_committed(self) -> Optional[int]:
        """Sequence of the most recent fully committed global checkpoint."""
        return self._committed[-1] if self._committed else None

    def committed_sequences(self) -> list[int]:
        """All committed global sequences, oldest first."""
        return list(self._committed)

    def pieces(self, rank: int) -> list[StoredObject]:
        """All stored pieces for ``rank``, oldest first."""
        self._check_rank(rank)
        return list(self._chains[rank])

    # -- integrity -----------------------------------------------------------

    def find(self, rank: int, seq: int) -> Optional[StoredObject]:
        """The stored piece for ``(rank, seq)``, or None.  Chains hold
        strictly increasing sequences (:meth:`put`), so the search runs
        from the tail and stops below ``seq``."""
        self._check_rank(rank)
        for obj in reversed(self._chains[rank]):
            if obj.seq <= seq:
                return obj if obj.seq == seq else None
        return None

    def verify_chain(self, rank: int, upto_seq: Optional[int] = None,
                     require_seq: Optional[int] = None) -> ChainVerification:
        """Verify the recovery chain for ``rank`` up to ``upto_seq``:
        digests plus predecessor/base links.  See
        :func:`repro.storage.integrity.verify_chain`."""
        self._check_rank(rank)
        return verify_chain(rank, self.chain(rank, upto_seq=upto_seq),
                            target_seq=upto_seq, require_seq=require_seq)

    # -- silent corruption (fault-injection surface) --------------------------

    def flip_bits(self, rank: int, seq: int, *, nbits: int = 1,
                  seed: int = 0) -> Optional[StoredObject]:
        """Flip ``nbits`` random bits in the stored payload of one piece
        -- silent media corruption: the recorded digest is *not* updated,
        so only verification can tell.  Deterministic for a given
        ``(seed, rank, seq)``.  Returns the piece, or None when it holds
        no payload bytes to corrupt (nothing happened).
        """
        if nbits < 1:
            raise StorageError(f"nbits must be >= 1, got {nbits}")
        obj = self.find(rank, seq)
        if obj is None:
            raise StorageError(f"rank {rank} has no piece for seq {seq}")
        targets = self._corruptible_arrays(obj)
        if not targets:
            return None
        rng = np.random.default_rng([seed & 0x7FFFFFFF, rank, seq])
        sizes = np.array([t.size for t in targets])
        total = int(sizes.sum())
        for _ in range(nbits):
            pos = int(rng.integers(total))
            bit = int(rng.integers(8))
            for view, size in zip(targets, sizes):
                if pos < size:
                    view[pos] ^= np.uint8(1 << bit)
                    break
                pos -= int(size)
        return obj

    @staticmethod
    def _corruptible_arrays(obj: StoredObject) -> list[np.ndarray]:
        """Flat uint8 views over the piece's stored arrays (the "bytes
        on the platter"); empty when the piece keeps no payload."""
        if obj.payload is None:
            return []
        return [p.versions.view(np.uint8).reshape(-1)
                for p in obj.payload.payloads
                if p.versions.size and p.versions.flags.c_contiguous]

    def truncate_piece(self, rank: int, seq: int, *,
                       keep_bytes: Optional[int] = None) -> StoredObject:
        """Model a torn/short write: the piece's trailing saved units are
        gone and its on-media size shrinks, but the recorded digest (the
        write-time header) still describes the full piece.  The store
        ledger reflects the *actual* bytes held.  Returns the truncated
        piece now in the chain.
        """
        obj = self.find(rank, seq)
        if obj is None:
            raise StorageError(f"rank {rank} has no piece for seq {seq}")
        if keep_bytes is None:
            keep_bytes = obj.nbytes // 2
        if not (0 <= keep_bytes <= obj.nbytes):
            raise StorageError(
                f"keep_bytes {keep_bytes} outside [0, {obj.nbytes}]")
        payload = obj.payload
        if payload is not None:
            payload = self._truncate_payload(payload, keep_bytes)
            new_nbytes = min(obj.nbytes, payload.nbytes)
        else:
            new_nbytes = keep_bytes
        truncated = dataclasses.replace(obj, nbytes=new_nbytes,
                                        payload=payload)
        chain = self._chains[rank]
        chain[chain.index(obj)] = truncated
        return truncated

    @staticmethod
    def _truncate_payload(payload, keep_bytes: int):
        """Drop trailing saved units until the modelled size fits."""
        def rebuild(kept):
            return dataclasses.replace(payload, payloads=tuple(kept))

        def head(p, n):
            return dataclasses.replace(
                p, indices=p.indices[:n], versions=p.versions[:n])

        kept = list(payload.payloads)
        while kept:
            size = rebuild(kept).nbytes
            if size <= keep_bytes:
                break
            last = kept[-1]
            n_units = len(last.indices)
            if n_units <= 1:
                kept.pop()
                continue
            drop = max(1, n_units
                       - max(0, (n_units * keep_bytes) // max(size, 1)))
            kept[-1] = head(last, n_units - drop)
        return rebuild(kept)

    def drop_piece(self, rank: int, seq: int) -> StoredObject:
        """Silently lose one piece from a chain -- no poisoning, no
        commit bookkeeping, committed sequences included: exactly what a
        misdirected write or lost object leaves behind.  (Contrast
        :meth:`discard`, the *detected* write-failure path.)  Returns the
        removed piece; the ledger drops its bytes.
        """
        obj = self.find(rank, seq)
        if obj is None:
            raise StorageError(f"rank {rank} has no piece for seq {seq}")
        self._chains[rank].remove(obj)
        return obj

    # -- maintenance --------------------------------------------------------------

    def discard(self, rank: int, seq: int) -> int:
        """Remove one rank's piece for ``seq`` (its stable-storage write
        failed, so the store must not pretend the data is recoverable).
        Committed sequences cannot be discarded.  Returns bytes dropped.
        """
        self._check_rank(rank)
        if seq in self._committed:
            raise StorageError(f"cannot discard committed sequence {seq}")
        chain = self._chains[rank]
        for i, obj in enumerate(chain):
            if obj.seq == seq:
                del chain[i]
                return obj.nbytes
        raise StorageError(f"rank {rank} has no piece for seq {seq}")

    def truncate(self, rank: int, before_seq: int) -> int:
        """Drop pieces with ``seq < before_seq`` (after a new full
        checkpoint makes them unreachable), and the commit markers below
        ``before_seq``: such a sequence is no longer a restorable cut.
        Returns bytes reclaimed."""
        self._check_rank(rank)
        chain = self._chains[rank]
        keep = [o for o in chain if o.seq >= before_seq]
        if keep and keep[0].kind != "full":
            raise StorageError(
                f"truncation at seq {before_seq} would orphan incremental "
                f"pieces for rank {rank}")
        reclaimed = sum(o.nbytes for o in chain) - sum(o.nbytes for o in keep)
        self._chains[rank] = keep
        self._committed = [s for s in self._committed if s >= before_seq]
        return reclaimed

    # -- accounting ---------------------------------------------------------------

    def total_bytes(self) -> int:
        """Bytes held across every rank's chain."""
        return sum(o.nbytes for chain in self._chains.values() for o in chain)

    def count(self) -> int:
        """Stored pieces across every rank."""
        return sum(len(chain) for chain in self._chains.values())

    def _check_rank(self, rank: int) -> None:
        if not (0 <= rank < self.nranks):
            raise StorageError(f"rank {rank} outside store of {self.nranks}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        from repro.units import fmt_bytes
        return (f"<CheckpointStore nranks={self.nranks} pieces={self.count()} "
                f"bytes={fmt_bytes(self.total_bytes())} "
                f"committed={self.latest_committed()}>")

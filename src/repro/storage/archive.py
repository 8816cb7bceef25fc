"""Checkpoint-store archives: a framed on-disk format plus a paranoid
scanner.

:func:`save_store` serializes a :class:`~repro.storage.CheckpointStore`
-- chains, commit markers, payload arrays, and the integrity metadata
recorded at write time -- into a single framed binary file.
:func:`scan_store` walks the frames *defensively* and reports every
piece's integrity status without ever raising on mangled input: a
truncated, bit-flipped, or garbage file yields a report, not a crash.
``repro ckpt verify`` is a thin CLI wrapper over the scanner.

Format (all integers little-endian uint32 length prefixes)::

    magic  b"RCKPT1\\n"
    frame  store header JSON  {"nranks", "committed", "pieces"}
    pieces x frame pairs:
        piece header JSON     {"rank", "seq", "kind", "nbytes",
                               "stored_at", "digest", "prev_digest",
                               "base_digest", "payload_len"}
        payload blob          (see _encode_payload; empty when the piece
                               kept no payload object)
"""

from __future__ import annotations

import json
import struct
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.atomic import atomic_write
from repro.errors import StorageError
from repro.storage.integrity import (ChainVerification, piece_digest,
                                     prefix_verification, verify_chain)
from repro.storage.store import CheckpointStore, StoredObject

MAGIC = b"RCKPT1\n"
_LEN = struct.Struct("<I")
#: refuse absurd length prefixes instead of trying to allocate them
MAX_FRAME = 1 << 31


# -- payload codec ----------------------------------------------------------


def _encode_payload(payload) -> bytes:
    """Checkpoint object -> canonical bytes (JSON meta + raw arrays)."""
    if payload is None:
        return b""
    meta = {
        "seq": payload.seq, "kind": payload.kind,
        "taken_at": payload.taken_at, "page_size": payload.page_size,
        "geometry": [[r.sid, r.kind, r.base, r.npages]
                     for r in payload.geometry],
        # third field: a unit-byte-content flag, always false (units
        # carry write versions only), kept so RCKPT1 bytes are unchanged
        "payloads": [[p.sid, int(len(p.indices)), False]
                     for p in payload.payloads],
    }
    if payload.block_size != payload.page_size:
        # only sub-page pieces carry the key, so page-mode archives stay
        # byte-identical to the pre-dcp format
        meta["block_size"] = payload.block_size
    parts = [_frame(json.dumps(meta, sort_keys=True).encode())]
    for p in payload.payloads:
        parts.append(np.ascontiguousarray(p.indices,
                                          dtype=np.int64).tobytes())
        parts.append(np.ascontiguousarray(p.versions,
                                          dtype=np.uint64).tobytes())
    return b"".join(parts)


def _decode_payload(blob: bytes):
    """Bytes -> Checkpoint; raises StorageError on any malformation."""
    from repro.checkpoint.snapshot import Checkpoint, Payload, SegmentRecord
    if not blob:
        return None
    meta_raw, offset = _read_frame(blob, 0, what="payload meta")
    try:
        meta = json.loads(meta_raw)
        geometry = tuple(SegmentRecord(sid=s, kind=k, base=b, npages=n)
                         for s, k, b, n in meta["geometry"])
        page_size = int(meta["page_size"])
        block_size = int(meta.get("block_size", page_size))
        payloads = []
        for sid, nunits, has_bytes in meta["payloads"]:
            if has_bytes is not False:
                raise StorageError(
                    f"malformed payload blob: sid {sid} flags unit byte "
                    "content, which the format does not carry")
            nunits = int(nunits)
            indices, offset = _take_array(blob, offset, nunits, np.int64)
            versions, offset = _take_array(blob, offset, nunits, np.uint64)
            payloads.append(Payload(sid=int(sid), indices=indices,
                                    versions=versions))
        return Checkpoint(seq=int(meta["seq"]), kind=meta["kind"],
                          taken_at=float(meta["taken_at"]),
                          page_size=page_size, geometry=geometry,
                          payloads=tuple(payloads), block_size=block_size)
    except StorageError:
        raise
    except Exception as exc:
        raise StorageError(f"malformed payload blob: {exc}") from exc


def _take_array(blob: bytes, offset: int, count: int, dtype):
    nbytes = count * np.dtype(dtype).itemsize
    if nbytes < 0 or offset + nbytes > len(blob):
        raise StorageError("payload blob ends mid-array")
    arr = np.frombuffer(blob, dtype=dtype, count=count,
                        offset=offset).copy()
    return arr, offset + nbytes


# -- framing ----------------------------------------------------------------


def _frame(data: bytes) -> bytes:
    return _LEN.pack(len(data)) + data


def _read_frame(data: bytes, offset: int, *, what: str) -> tuple[bytes, int]:
    if offset + _LEN.size > len(data):
        raise StorageError(f"file ends mid-{what} length")
    (length,) = _LEN.unpack_from(data, offset)
    offset += _LEN.size
    if length > MAX_FRAME or offset + length > len(data):
        raise StorageError(f"file ends mid-{what} ({length} byte(s) claimed)")
    return data[offset:offset + length], offset + length


# -- save / load ------------------------------------------------------------


def save_store(store: CheckpointStore, path: Union[str, Path]) -> Path:
    """Write the store -- chains, commits, payloads, digests -- to one
    framed binary file.  Returns the path written.

    The archive is written to a temporary sibling and renamed over
    ``path``, so a write that fails midway leaves any previous archive
    at ``path`` untouched instead of torn.
    """
    pieces = [obj for rank in range(store.nranks)
              for obj in store.pieces(rank)]
    header = {"nranks": store.nranks,
              "committed": store.committed_sequences(),
              "pieces": len(pieces)}
    parts = [MAGIC, _frame(json.dumps(header, sort_keys=True).encode())]
    for obj in pieces:
        blob = _encode_payload(obj.payload)
        meta = {"rank": obj.rank, "seq": obj.seq, "kind": obj.kind,
                "nbytes": obj.nbytes, "stored_at": obj.stored_at,
                "digest": obj.digest, "prev_digest": obj.prev_digest,
                "base_digest": obj.base_digest, "payload_len": len(blob)}
        parts.append(_frame(json.dumps(meta, sort_keys=True).encode()))
        parts.append(blob)
    return atomic_write(path, b"".join(parts))


# -- scanning ---------------------------------------------------------------


@dataclass(frozen=True)
class PieceScan:
    """Scan outcome for one archived piece."""

    index: int
    #: "ok", "corrupt" (digest mismatch), "unreadable" (bad meta or
    #: payload), or "truncated" (file ended inside the frame)
    status: str
    rank: Optional[int] = None
    seq: Optional[int] = None
    kind: Optional[str] = None
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def label(self) -> str:
        if self.rank is None:
            return f"#{self.index}"
        return f"rank {self.rank} seq {self.seq}"


@dataclass(frozen=True)
class StoreScanReport:
    """Everything one defensive pass over an archive found."""

    path: str
    nranks: int = 0
    committed: tuple[int, ...] = ()
    pieces: tuple[PieceScan, ...] = ()
    #: chain-level verification failures (drops/links), by rank summary
    chain_problems: tuple[str, ...] = ()
    #: file-level failure (bad magic, unreadable header); None when the
    #: frames themselves could be walked
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return (self.error is None and all(p.ok for p in self.pieces)
                and not self.chain_problems)

    @property
    def n_corrupt(self) -> int:
        return sum(1 for p in self.pieces if not p.ok)

    def render(self) -> str:
        """The ``repro ckpt verify`` report text."""
        if self.error is not None:
            return f"{self.path}: UNREADABLE: {self.error}"
        lines = [f"{self.path}: {len(self.pieces)} piece(s), "
                 f"{self.nranks} rank(s), "
                 f"{len(self.committed)} committed sequence(s)"]
        for p in self.pieces:
            if p.ok:
                continue
            detail = f" ({p.detail})" if p.detail else ""
            lines.append(f"  {p.label}: {p.status.upper()}{detail}")
        lines.extend(f"  {problem}" for problem in self.chain_problems)
        lines.append("OK: every piece verified and every chain is intact"
                     if self.ok else
                     f"CORRUPT: {self.n_corrupt} bad piece(s), "
                     f"{len(self.chain_problems)} broken chain(s)")
        return "\n".join(lines)


def scan_store(path: Union[str, Path]) -> StoreScanReport:
    """Walk an archive defensively and verify every piece and chain.

    Never raises on mangled *content*: truncation anywhere, flipped
    header bytes, or garbage payloads all come back as statuses in the
    report.  Only a genuinely unreadable filesystem path raises OSError.
    """
    path = Path(path)
    data = path.read_bytes()
    if not data.startswith(MAGIC):
        return StoreScanReport(path=str(path), error="bad magic")
    offset = len(MAGIC)
    try:
        header_raw, offset = _read_frame(data, offset, what="store header")
        header = json.loads(header_raw)
        nranks = int(header["nranks"])
        committed = tuple(int(s) for s in header["committed"])
        npieces = int(header["pieces"])
        if nranks < 1 or npieces < 0:
            raise StorageError("nonsense store header counts")
    except (StorageError, ValueError, KeyError, TypeError) as exc:
        return StoreScanReport(path=str(path),
                               error=f"unreadable store header: {exc}")

    pieces: list[PieceScan] = []
    chains: dict[int, list[StoredObject]] = {}
    for index in range(npieces):
        try:
            meta_raw, offset = _read_frame(data, offset, what="piece header")
        except StorageError as exc:
            pieces.append(PieceScan(index=index, status="truncated",
                                    detail=str(exc)))
            break
        try:
            meta = json.loads(meta_raw)
            rank, seq = int(meta["rank"]), int(meta["seq"])
            kind = str(meta["kind"])
            nbytes = int(meta["nbytes"])
            payload_len = int(meta["payload_len"])
            if payload_len < 0 or nbytes < 0:
                raise ValueError("negative length")
        except (ValueError, KeyError, TypeError) as exc:
            pieces.append(PieceScan(index=index, status="unreadable",
                                    detail=f"bad piece header: {exc}"))
            break
        if offset + payload_len > len(data):
            pieces.append(PieceScan(index=index, status="truncated",
                                    rank=rank, seq=seq, kind=kind,
                                    detail="file ends inside the payload"))
            break
        blob = data[offset:offset + payload_len]
        offset += payload_len
        try:
            payload = _decode_payload(blob)
        except StorageError as exc:
            pieces.append(PieceScan(index=index, status="unreadable",
                                    rank=rank, seq=seq, kind=kind,
                                    detail=str(exc)))
            continue
        obj = StoredObject(rank=rank, seq=seq, kind=kind, nbytes=nbytes,
                           payload=payload,
                           stored_at=float(meta.get("stored_at", 0.0)),
                           digest=meta.get("digest"),
                           prev_digest=meta.get("prev_digest"),
                           base_digest=meta.get("base_digest"))
        recomputed = piece_digest(rank, seq, kind, nbytes, payload)
        if obj.digest is None or recomputed != obj.digest:
            pieces.append(PieceScan(index=index, status="corrupt",
                                    rank=rank, seq=seq, kind=kind,
                                    detail="digest mismatch"))
        else:
            pieces.append(PieceScan(index=index, status="ok", rank=rank,
                                    seq=seq, kind=kind))
        if 0 <= rank < nranks:
            chains.setdefault(rank, []).append(obj)

    chain_problems: dict[str, None] = {}   # ordered, without repeats
    if committed:
        # every committed sequence promises a verifiable chain for EVERY
        # rank, so ranks whose pieces were lost entirely are checked too
        for rank in range(nranks):
            for outcome in _verify_committed(rank, chains.get(rank, []),
                                             committed):
                if not outcome.intact:
                    chain_problems[outcome.summary()] = None
    else:
        for rank in sorted(chains):
            gens = _generations(chains[rank])
            outcome = verify_chain(rank, gens[-1] if gens else [])
            if not outcome.intact:
                chain_problems[outcome.summary()] = None
    return StoreScanReport(path=str(path), nranks=nranks,
                           committed=committed, pieces=tuple(pieces),
                           chain_problems=tuple(chain_problems))


def _generations(chain: list[StoredObject]) -> list[list[StoredObject]]:
    """Split one rank's pieces into runs that each start at a full
    checkpoint; deltas before the first full belong to none."""
    gens: list[list[StoredObject]] = []
    for obj in chain:
        if obj.kind == "full":
            gens.append([])
        if gens:
            gens[-1].append(obj)
    return gens


def _verify_committed(rank: int, chain: list[StoredObject],
                      committed: tuple[int, ...]) -> list[ChainVerification]:
    """The outcome of :func:`verify_chain` for ``rank``'s chain to each
    committed sequence, hashing each piece at most once.

    A sequence's recovery chain is the generation of the newest full at
    or before it, so one verification per generation, up to the newest
    sequence committed in it, answers every older sequence of the
    generation through :func:`prefix_verification`."""
    gens = _generations(chain)
    heads = [gen[0].seq for gen in gens]
    by_gen: dict[int, list[int]] = {}
    for seq in committed:
        # -1: no full at or before seq
        by_gen.setdefault(bisect_right(heads, seq) - 1, []).append(seq)
    outcomes = []
    for g, seqs in by_gen.items():
        top = seqs[-1]
        pieces = [] if g < 0 else [o for o in gens[g] if o.seq <= top]
        outcome = verify_chain(rank, pieces, target_seq=top,
                               require_seq=top)
        outcomes.extend(prefix_verification(outcome, seq) for seq in seqs
                        if seq != top)
        outcomes.append(outcome)
    return outcomes

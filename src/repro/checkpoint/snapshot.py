"""Checkpoint objects: what gets written to stable storage.

A checkpoint carries

- the *geometry* of every data segment at capture time (kind, base,
  size, and the segment's process-unique ``sid`` so chain replay can
  follow a segment through growth and shrink), and
- *payloads*: per segment, the indices of saved units and their content
  (64-bit write-version signatures standing in for the bytes -- see
  DESIGN.md on content signatures), and
- optionally the captured space's *state digest*, which every restore
  from a chain ending at this checkpoint checks itself against.

A unit is a fixed-size block of ``block_size`` bytes; block ``i`` of a
segment covers bytes ``[i * block_size, (i + 1) * block_size)``.  The
paper's page-granular incremental checkpoint is the
``block_size == page_size`` case, where a unit is a page; sub-page
blocks make the delta differential (kind ``"dcp"``).

``nbytes`` models the stable-storage cost: one unit of data per saved
unit plus a small per-segment header.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import CheckpointError

#: modelled metadata cost per segment record
SEGMENT_HEADER_BYTES = 64


@dataclass(frozen=True)
class SegmentRecord:
    """Geometry of one data segment at capture time."""

    sid: int
    kind: str       #: SegmentKind value ("data", "bss", "heap", "mmap")
    base: int
    npages: int

    def __post_init__(self) -> None:
        if self.npages < 0:
            raise CheckpointError(f"negative page count in segment record")


@dataclass(frozen=True)
class Payload:
    """Saved units of one segment: parallel index/version arrays."""

    sid: int
    indices: np.ndarray    #: unit indices within the segment (ascending)
    #: content of each saved unit: its 64-bit write version (the page's
    #: for a page unit, the block's for a sub-page block)
    versions: np.ndarray

    def __post_init__(self) -> None:
        if len(self.indices) != len(self.versions):
            raise CheckpointError("payload index/version length mismatch")


@dataclass(frozen=True)
class Checkpoint:
    """One rank's checkpoint: geometry + payloads."""

    seq: int
    kind: str                       #: "full", "incremental", or "dcp"
    taken_at: float
    page_size: int
    geometry: tuple[SegmentRecord, ...]
    payloads: tuple[Payload, ...]
    #: unit granularity (bytes); None means ``page_size``.  Kind
    #: ``"dcp"`` holds exactly when ``block_size < page_size``.
    block_size: int | None = None
    #: :meth:`~repro.mem.AddressSpace.state_digest` of the captured
    #: space at capture time: what a restore from a chain ending here
    #: must reproduce.  None when nobody recorded it (the restore is
    #: then unchecked).  Not covered by the stored piece digest.
    state_digest: bytes | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("full", "incremental", "dcp"):
            raise CheckpointError(f"unknown checkpoint kind {self.kind!r}")
        if self.block_size is None:
            object.__setattr__(self, "block_size", self.page_size)
        if self.block_size < 1 or self.page_size % self.block_size:
            raise CheckpointError(
                f"block size {self.block_size} must be >= 1 and divide "
                f"the page size {self.page_size}")
        if (self.kind == "dcp") != (self.block_size < self.page_size):
            raise CheckpointError(
                f"{self.kind} checkpoint with {self.block_size}-byte "
                f"units at page size {self.page_size}: kind 'dcp' holds "
                f"exactly for sub-page units")
        sids = {rec.sid for rec in self.geometry}
        for p in self.payloads:
            if p.sid not in sids:
                raise CheckpointError(
                    f"payload for sid {p.sid} has no geometry record")

    @property
    def pages_saved(self) -> int:
        """Distinct pages the payloads cover."""
        per_page = self.page_size // self.block_size
        if per_page == 1:
            return sum(len(p.indices) for p in self.payloads)
        return sum(len(np.unique(p.indices // per_page))
                   for p in self.payloads)

    @property
    def nbytes(self) -> int:
        """Modelled size on stable storage: one ``block_size`` unit per
        saved unit, plus a per-segment header (which amortizes the block
        bitmap of a sub-page delta)."""
        return (sum(len(p.indices) for p in self.payloads) * self.block_size
                + SEGMENT_HEADER_BYTES * len(self.geometry))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        from repro.units import fmt_bytes
        return (f"<Checkpoint seq={self.seq} {self.kind} "
                f"pages={self.pages_saved} ({fmt_bytes(self.nbytes)}) "
                f"t={self.taken_at:.2f}>")

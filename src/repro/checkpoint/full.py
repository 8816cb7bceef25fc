"""Full checkpoints: save every mapped data page."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.checkpoint.snapshot import Checkpoint, Payload, SegmentRecord
from repro.mem import AddressSpace


def geometry_of(memory: AddressSpace,
                known: Optional[dict[int, SegmentRecord]] = None,
                ) -> tuple[SegmentRecord, ...]:
    """Geometry records for all currently mapped data segments.

    ``known`` is the caller's ``sid -> record`` table from its previous
    call on ``memory``.  Records are frozen, so a segment whose
    ``(sid, base, npages)`` is unchanged reuses its record instead of
    building a new one; the table is then refilled with exactly the
    current records."""
    if known is None:
        known = {}
    records = []
    for seg in memory.data_segments():
        rec = known.get(seg.sid)
        if rec is None or rec.base != seg.base or rec.npages != seg.npages:
            rec = SegmentRecord(sid=seg.sid, kind=seg.kind.value,
                                base=seg.base, npages=seg.npages)
        records.append(rec)
    known.clear()
    known.update((rec.sid, rec) for rec in records)
    return tuple(records)


class FullCheckpointer:
    """Captures the complete data memory (the non-incremental baseline
    the paper's bandwidth comparison is implicitly made against)."""

    def capture(self, memory: AddressSpace, seq: int,
                taken_at: float = 0.0) -> Checkpoint:
        """Snapshot every mapped data page of ``memory``."""
        payloads = []
        for seg in memory.data_segments():
            if seg.npages == 0:
                continue
            payloads.append(Payload(
                sid=seg.sid,
                indices=np.arange(seg.npages, dtype=np.int64),
                versions=seg.pages.versions.copy()))
        return Checkpoint(seq=seq, kind="full", taken_at=taken_at,
                          page_size=memory.page_size,
                          geometry=geometry_of(memory),
                          payloads=tuple(payloads))

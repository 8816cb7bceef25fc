"""Rollback recovery: rebuild an address space from a checkpoint chain.

Replay walks the chain oldest-to-newest, evolving a per-segment version
map: geometry records grow/shrink/drop segments (new pages arrive
zeroed, exactly like the kernel's zero-fill), payloads stamp saved unit
versions and bytes.  The final state is materialized into a fresh
:class:`~repro.mem.AddressSpace` whose content signature must equal the
original's at capture time -- the correctness property the test suite
checks exhaustively.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.checkpoint.snapshot import Checkpoint, SegmentRecord
from repro.errors import CorruptionError, RecoveryError
from repro.mem import AddressSpace, Layout, SegmentKind
from repro.storage import CheckpointStore
from repro.storage.integrity import verify_chain


def replay_chain(chain: Sequence[Checkpoint]) \
        -> dict[int, tuple[SegmentRecord, np.ndarray, Optional[np.ndarray]]]:
    """Evolve the chain into ``sid -> (final geometry, versions, bytes)``.

    The third element is the reconstructed byte content, shape
    ``(npages, page_size)``; None when the chain was captured under the
    signature-only backend.
    """
    if not chain:
        raise RecoveryError("empty checkpoint chain")
    if chain[0].kind != "full":
        raise RecoveryError("chain must start with a full checkpoint")
    page_size = chain[0].page_size
    has_bytes = any(p.unit_bytes is not None
                    for c in chain for p in c.payloads)
    state: dict[int, tuple[SegmentRecord, np.ndarray, Optional[np.ndarray]]] = {}
    for ckpt in chain:
        new_state: dict[int, tuple] = {}
        for rec in ckpt.geometry:
            versions = np.zeros(rec.npages, dtype=np.uint64)
            content = (np.zeros((rec.npages, page_size), dtype=np.uint8)
                       if has_bytes else None)
            old = state.get(rec.sid)
            if old is not None:
                n = min(len(old[1]), rec.npages)
                versions[:n] = old[1][:n]
                if content is not None and old[2] is not None:
                    content[:n] = old[2][:n]
            new_state[rec.sid] = (rec, versions, content)
        state = new_state  # segments missing from the geometry are dropped
        per_page = ckpt.page_size // ckpt.block_size
        for payload in ckpt.payloads:
            entry = state.get(payload.sid)
            if entry is None:
                raise RecoveryError(
                    f"payload for unknown segment sid {payload.sid}")
            rec, versions, content = entry
            in_range = payload.indices < rec.npages * per_page
            idx = payload.indices[in_range]
            if per_page == 1:
                # one block per page: a saved page takes its version
                versions[idx] = payload.versions[in_range]
            else:
                # stamp pages with the max block hash (== the page's
                # write version under the signature backend).  A page
                # with every block emitted (forced full-page emit for
                # new/regrown pages, or all blocks changed) takes
                # exactly max(emitted versions) -- the carried version
                # may be a stale higher value from before a shrink; a
                # partially-emitted page keeps its unchanged blocks, so
                # its version is max(carried, emitted)
                touched, counts = np.unique(idx // per_page,
                                            return_counts=True)
                versions[touched[counts == per_page]] = 0
                np.maximum.at(versions, idx // per_page,
                              payload.versions[in_range])
            if content is not None and payload.unit_bytes is not None:
                content.reshape(-1, ckpt.block_size)[idx] = \
                    payload.unit_bytes[in_range]
    return state


def restore_address_space(chain: Sequence[Checkpoint],
                          layout: Optional[Layout] = None) -> AddressSpace:
    """Materialize the chain's final state into a new address space.

    Chains captured under the bytes backend restore real page contents
    (the new space gets ``store_contents=True``); signature-only chains
    restore version arrays.
    """
    state = replay_chain(chain)
    by_kind: dict[str, list[tuple]] = {}
    has_bytes = False
    for rec, versions, content in state.values():
        by_kind.setdefault(rec.kind, []).append((rec, versions, content))
        has_bytes = has_bytes or content is not None
    for kind in ("data", "bss", "heap"):
        if len(by_kind.get(kind, [])) > 1:
            raise RecoveryError(f"chain holds multiple {kind} segments")

    layout = layout or Layout()
    page_size = layout.page_size
    if page_size != chain[0].page_size:
        raise RecoveryError(
            f"layout page size {page_size} != checkpoint page size "
            f"{chain[0].page_size}")

    def only(kind: str) -> Optional[tuple]:
        entries = by_kind.get(kind, [])
        return entries[0] if entries else None

    data = only("data")
    bss = only("bss")
    heap = only("heap")
    asp = AddressSpace(
        layout,
        data_size=(data[0].npages if data else 0) * page_size,
        bss_size=(bss[0].npages if bss else 0) * page_size,
        store_contents=has_bytes)
    if heap is not None and heap[0].npages:
        asp.sbrk(heap[0].npages * page_size)

    targets: list[tuple] = []
    if data is not None:
        targets.append((asp.data, data[1], data[2]))
    if bss is not None:
        targets.append((asp.bss, bss[1], bss[2]))
    if heap is not None:
        targets.append((asp.heap, heap[1], heap[2]))
    for rec, versions, content in sorted(by_kind.get("mmap", []),
                                         key=lambda e: e[0].base):
        seg = asp.mmap_fixed(rec.base, rec.npages * page_size)
        targets.append((seg, versions, content))

    max_version = 0
    for seg, src, content in targets:
        if seg.npages != len(src):
            raise RecoveryError("restored segment size mismatch")
        seg.pages.versions[:] = src
        if content is not None and seg.contents is not None:
            seg.contents[:] = content.tobytes()
        if len(src):
            max_version = max(max_version, int(src.max()))
    # future writes must not reuse version numbers already on the pages
    asp._version = max(asp._version, max_version)
    return asp


def apply_chain(memory: AddressSpace, chain: Sequence[Checkpoint],
                strict: bool = True) -> None:
    """Overlay a chain's final content onto a live address space.

    Used by restart-in-place: the application re-allocates its (fully
    deterministic) geometry, then the checkpointed page versions are
    stamped over it.  With ``strict`` the static geometries must match
    exactly -- a data/bss/heap mismatch means the checkpoint was taken
    with a different memory layout and restoring it in place would
    corrupt state.  Chain *mmap* segments the live process lacks are
    recreated at their recorded addresses (MAP_FIXED, like a real
    restore): checkpoints taken while transient allocations were live
    restore those allocations too, which is what makes the restored
    address space bit-identical to the captured one.
    """
    state = replay_chain(chain)
    by_key = {(rec.kind, rec.base): (rec, versions, content)
              for rec, versions, content in state.values()}
    live_keys = set()
    max_version = memory._version
    for seg in memory.data_segments():
        key = (seg.kind.value, seg.base)
        live_keys.add(key)
        entry = by_key.get(key)
        if entry is None:
            if strict and seg.npages > 0:
                raise RecoveryError(
                    f"live segment {seg.name!r} at {seg.base:#x} has no "
                    "counterpart in the checkpoint chain")
            continue
        rec, versions, content = entry
        if rec.npages != seg.npages:
            raise RecoveryError(
                f"segment {seg.name!r}: live size {seg.npages} pages != "
                f"checkpointed {rec.npages}")
        seg.pages.versions[:] = versions
        if content is not None and seg.contents is not None:
            seg.contents[:] = content.tobytes()
        if len(versions):
            max_version = max(max_version, int(versions.max()))
    if strict:
        missing = set(by_key) - live_keys
        missing = {k for k in missing if by_key[k][0].npages > 0}
        static_missing = {k for k in missing if k[0] != "mmap"}
        if static_missing:
            raise RecoveryError(
                f"checkpoint chain has segments the live process lacks: "
                f"{sorted(static_missing)}")
        for kind, base in sorted(missing):
            rec, versions, content = by_key[(kind, base)]
            seg = memory.mmap_fixed(base, rec.npages * memory.page_size)
            seg.pages.versions[:] = versions
            if content is not None and seg.contents is not None:
                seg.contents[:] = content.tobytes()
            if len(versions):
                max_version = max(max_version, int(versions.max()))
    memory._version = max_version


def estimated_restore_time(chain: Sequence[Checkpoint],
                           read_bandwidth: float, *,
                           seek_latency: float = 4.7e-3,
                           verify_bandwidth: Optional[float] = None) -> float:
    """How long reading a recovery chain from stable storage takes: one
    sequential read per chain piece.  Feeds the availability model's
    restart-time parameter.

    ``verify_bandwidth`` additionally charges one digest recomputation
    pass over every byte read (integrity-checked restore); None keeps
    the cost identical to an unverified read.
    """
    if not chain:
        raise RecoveryError("empty checkpoint chain")
    if read_bandwidth <= 0:
        raise RecoveryError("read bandwidth must be positive")
    total = sum(seek_latency + ckpt.nbytes / read_bandwidth
                for ckpt in chain)
    if verify_bandwidth is not None:
        if verify_bandwidth <= 0:
            raise RecoveryError("verify bandwidth must be positive")
        total += sum(ckpt.nbytes / verify_bandwidth for ckpt in chain)
    return total


class RecoveryManager:
    """Recovery over a :class:`~repro.storage.CheckpointStore`.

    With ``verify_integrity`` (the default) every chain read recomputes
    piece digests and chain links before a single byte is trusted: a
    silently corrupted, truncated, or dropped piece raises
    :class:`~repro.errors.CorruptionError` instead of restoring garbage.
    Choosing *which* sequence to recover to is not its job: the
    corruption-aware walk-back belongs to
    :class:`~repro.faults.driver.FailureRecoveryDriver`, and
    ``repro ckpt verify`` scans a saved store with
    :func:`~repro.storage.archive.scan_store`.
    """

    def __init__(self, store: CheckpointStore,
                 layout: Optional[Layout] = None, *,
                 verify_integrity: bool = True):
        self.store = store
        self.layout = layout
        self.verify_integrity = verify_integrity

    def recovery_chain(self, rank: int,
                       seq: Optional[int] = None) -> list[Checkpoint]:
        """The checkpoint objects needed to recover ``rank`` to global
        sequence ``seq`` (default: the latest committed one)."""
        if seq is None:
            seq = self.store.latest_committed()
            if seq is None:
                raise RecoveryError("no committed global checkpoint to recover to")
        pieces = self.store.chain(rank, upto_seq=seq)
        if not pieces:
            raise RecoveryError(f"rank {rank} has no recoverable chain")
        if self.verify_integrity:
            # the commit invariant guarantees a piece at every committed
            # sequence, so a clean chain stopping short of one means the
            # target piece was silently dropped
            require = (seq if seq in self.store.committed_sequences()
                       else None)
            outcome = verify_chain(rank, pieces, target_seq=seq,
                                   require_seq=require)
            if not outcome.intact:
                bad = outcome.first_bad
                raise CorruptionError(
                    f"rank {rank} cannot recover to seq {seq}: "
                    f"piece seq {bad.seq} {bad.reason} (intact prefix ends "
                    f"at {outcome.verified_upto})")
        chain = [p.payload for p in pieces]
        if any(c is None for c in chain):
            raise RecoveryError("stored pieces are missing checkpoint payloads")
        return chain

    def recovery_chains(self, seq: Optional[int] = None) \
            -> dict[int, list[Checkpoint]]:
        """Every rank's :meth:`recovery_chain` to the same sequence: what
        a :class:`~repro.checkpoint.RestartCoordinator` resumes from."""
        return {rank: self.recovery_chain(rank, seq)
                for rank in range(self.store.nranks)}

    def restore_rank(self, rank: int,
                     seq: Optional[int] = None) -> AddressSpace:
        """Rebuild one rank's address space from its stored chain."""
        return restore_address_space(self.recovery_chain(rank, seq),
                                     layout=self.layout)

    def restore_all(self, seq: Optional[int] = None) -> dict[int, AddressSpace]:
        """Roll every rank back to the same committed sequence -- the
        coordinated recovery a failure triggers."""
        return {rank: restore_address_space(chain, layout=self.layout)
                for rank, chain in self.recovery_chains(seq).items()}

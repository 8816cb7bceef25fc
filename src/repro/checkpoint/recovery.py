"""Rollback recovery: rebuild an address space from a checkpoint chain.

Replay walks the chain oldest-to-newest, evolving a per-segment version
map: geometry records grow/shrink/drop segments (new pages arrive
zeroed, exactly like the kernel's zero-fill), payloads stamp saved unit
versions.  The final state is materialized into a fresh
:class:`~repro.mem.AddressSpace` (or stamped over a live one) whose
content signature must equal the original's at capture time.  Every
restore checks that itself when the chain head carries the state digest
recorded at capture (:attr:`Checkpoint.state_digest`).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.checkpoint.snapshot import Checkpoint, SegmentRecord
from repro.errors import CorruptionError, RecoveryError
from repro.mem import AddressSpace, Layout
from repro.storage import CheckpointStore
from repro.storage.integrity import verify_chain


def replay_chain(chain: Sequence[Checkpoint]) \
        -> dict[int, tuple[SegmentRecord, np.ndarray]]:
    """Evolve the chain into ``sid -> (final geometry, page versions)``."""
    if not chain:
        raise RecoveryError("empty checkpoint chain")
    if chain[0].kind != "full":
        raise RecoveryError("chain must start with a full checkpoint")
    state: dict[int, tuple[SegmentRecord, np.ndarray]] = {}
    for ckpt in chain:
        new_state: dict[int, tuple[SegmentRecord, np.ndarray]] = {}
        for rec in ckpt.geometry:
            versions = np.zeros(rec.npages, dtype=np.uint64)
            old = state.get(rec.sid)
            if old is not None:
                n = min(len(old[1]), rec.npages)
                versions[:n] = old[1][:n]
            new_state[rec.sid] = (rec, versions)
        state = new_state  # segments missing from the geometry are dropped
        per_page = ckpt.page_size // ckpt.block_size
        for payload in ckpt.payloads:
            entry = state.get(payload.sid)
            if entry is None:
                raise RecoveryError(
                    f"payload for unknown segment sid {payload.sid}")
            rec, versions = entry
            in_range = payload.indices < rec.npages * per_page
            idx = payload.indices[in_range]
            if per_page == 1:
                # one block per page: a saved page takes its version
                versions[idx] = payload.versions[in_range]
            else:
                # stamp pages with the max block version (== the page's
                # write version).  A page with every block emitted
                # (forced full-page emit for new/regrown pages, or all
                # blocks changed) takes exactly max(emitted versions) --
                # the carried version may be a stale higher value from
                # before a shrink; a partially-emitted page keeps its
                # unchanged blocks, so its version is max(carried, emitted)
                touched, counts = np.unique(idx // per_page,
                                            return_counts=True)
                versions[touched[counts == per_page]] = 0
                np.maximum.at(versions, idx // per_page,
                              payload.versions[in_range])
    return state


def restore_address_space(chain: Sequence[Checkpoint],
                          layout: Optional[Layout] = None) -> AddressSpace:
    """Materialize the chain's final state into a new address space,
    checked like :func:`apply_chain`."""
    state = replay_chain(chain)
    npages: dict[str, int] = {}
    for rec, _ in state.values():
        if rec.kind in ("data", "bss", "heap"):
            if rec.kind in npages:
                raise RecoveryError(f"chain holds multiple {rec.kind} segments")
            npages[rec.kind] = rec.npages

    layout = layout or Layout()
    page_size = layout.page_size
    if page_size != chain[0].page_size:
        raise RecoveryError(
            f"layout page size {page_size} != checkpoint page size "
            f"{chain[0].page_size}")
    asp = AddressSpace(
        layout,
        data_size=npages.get("data", 0) * page_size,
        bss_size=npages.get("bss", 0) * page_size)
    if npages.get("heap"):
        asp.sbrk(npages["heap"] * page_size)
    _overlay(asp, chain[-1], state, strict=True)
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

    A strict overlay is then checked: when the chain head recorded the
    captured space's state digest, the restored space must reproduce
    it, or :class:`~repro.errors.RecoveryError` is raised -- a chain
    whose pieces do not rebuild the captured state is caught here,
    before anything runs on it.
    """
    state = replay_chain(chain)
    _overlay(memory, chain[-1], state, strict)


def _overlay(memory: AddressSpace, head: Checkpoint,
             state: dict[int, tuple[SegmentRecord, np.ndarray]],
             strict: bool) -> None:
    """Stamp replayed ``state`` over ``memory`` (see :func:`apply_chain`),
    ``head`` being the chain's newest checkpoint."""
    by_key = {(entry[0].kind, entry[0].base): entry
              for entry in state.values()}
    stamps = []
    for seg in memory.data_segments():
        entry = by_key.pop((seg.kind.value, seg.base), None)
        if entry is None:
            if strict and seg.npages > 0:
                raise RecoveryError(
                    f"live segment {seg.name!r} at {seg.base:#x} has no "
                    "counterpart in the checkpoint chain")
            continue
        if entry[0].npages != seg.npages:
            raise RecoveryError(
                f"segment {seg.name!r}: live size {seg.npages} pages != "
                f"checkpointed {entry[0].npages}")
        stamps.append((seg, entry))
    if strict:
        missing = sorted(key for key, entry in by_key.items()
                         if entry[0].npages > 0)
        static_missing = [key for key in missing if key[0] != "mmap"]
        if static_missing:
            raise RecoveryError(
                f"checkpoint chain has segments the live process lacks: "
                f"{static_missing}")
        for key in missing:
            rec = by_key[key][0]
            stamps.append((memory.mmap_fixed(rec.base,
                                             rec.npages * memory.page_size),
                           by_key[key]))
    max_version = memory._version
    for seg, (_, versions) in stamps:
        seg.pages.load_versions(versions)
        if len(versions):
            max_version = max(max_version, int(versions.max()))
    # future writes must not reuse version numbers already on the pages
    memory._version = max_version
    if (strict and head.state_digest is not None
            and memory.state_digest() != head.state_digest):
        raise RecoveryError(
            f"restored state differs from the checkpoint captured at seq "
            f"{head.seq}")


def estimated_restore_time(chain: Sequence[Checkpoint],
                           read_bandwidth: float, *,
                           seek_latency: float = 4.7e-3,
                           verify_bandwidth: Optional[float] = None) -> float:
    """How long reading a recovery chain from stable storage takes: one
    sequential read per chain piece.  Feeds the availability model's
    restart-time parameter.

    ``verify_bandwidth`` additionally charges one digest recomputation
    pass over every byte read; None leaves that pass unbilled.
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

    Every chain read recomputes piece digests and chain links before a
    single byte is trusted: a silently corrupted, truncated, or dropped
    piece raises :class:`~repro.errors.CorruptionError` instead of
    restoring garbage.
    Choosing *which* sequence to recover to is not its job: the
    corruption-aware walk-back belongs to
    :class:`~repro.faults.driver.FailureRecoveryDriver`, and
    ``repro ckpt verify`` scans a saved store with
    :func:`~repro.storage.archive.scan_store`.
    """

    def __init__(self, store: CheckpointStore,
                 layout: Optional[Layout] = None):
        self.store = store
        self.layout = layout

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

"""The coordinated checkpoint engine: every rank, same boundary.

The paper's applications are bulk-synchronous, so a global checkpoint at
a common timeslice boundary is naturally coordinated: all ranks capture
their delta at the same alarm index and stream it to stable storage.  A
global sequence number *commits* only when every rank's piece is durable
(two-phase in spirit); recovery always targets the latest committed
sequence, so a failure mid-checkpoint rolls back to the previous one.

The engine rides the instrumentation seams:

- it observes every timeslice (before the tracker resets the dirty set)
  to accumulate each rank's delta;
- every ``interval_slices``-th slice it captures -- a full checkpoint
  every ``full_every`` captures, incremental otherwise -- and, when it
  keeps payloads, records the captured space's state digest, which
  every restore from that piece must reproduce;
- each capture is written to that rank's storage (per-node disk by
  default; pass a factory for shared arrays or ramdisk-style diskless
  checkpointing).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Union

from repro.checkpoint.cow import CowWriteout
from repro.checkpoint.dcp import DcpCheckpointer
from repro.checkpoint.full import FullCheckpointer
from repro.checkpoint.incremental import IncrementalCheckpointer
from repro.checkpoint.transport import (CheckpointTransport, TransportSpec,
                                        make_transport, normalize_spec)
from repro.errors import CheckpointError
from repro.instrument import InstrumentationLibrary
from repro.instrument.records import TimesliceRecord
from repro.instrument.tracker import DirtyPageTracker
from repro.mpi import MPIJob, RankContext
from repro.storage import CheckpointStore, Disk, DisklessSink, SCSI_ULTRA320
from repro.units import GiB


@dataclass
class GlobalCheckpoint:
    """Progress record of one global checkpoint sequence."""

    seq: int
    kind: str
    requested_at: float
    total_bytes: int = 0
    ranks_stored: int = 0
    committed_at: Optional[float] = None
    per_rank_bytes: dict[int, int] = field(default_factory=dict)

    @property
    def committed(self) -> bool:
        return self.committed_at is not None

    @property
    def commit_latency(self) -> float:
        if self.committed_at is None:
            raise CheckpointError(f"sequence {self.seq} never committed")
        return self.committed_at - self.requested_at


class CheckpointEngine:
    """Coordinated full+incremental checkpointing for one job."""

    def __init__(self, job: MPIJob, library: InstrumentationLibrary,
                 store: Optional[CheckpointStore] = None, *,
                 interval_slices: int = 1,
                 full_every: int = 16,
                 storage_factory: Optional[Callable[[int], Disk]] = None,
                 keep_payloads: bool = True,
                 cow: bool = False,
                 gc: bool = False,
                 transport: Union[None, str, TransportSpec] = None,
                 block_size: Optional[int] = None):
        if interval_slices < 1:
            raise CheckpointError(
                f"interval_slices must be >= 1, got {interval_slices}")
        if full_every < 1:
            raise CheckpointError(f"full_every must be >= 1, got {full_every}")
        #: delta unit granularity (bytes); None means the page size
        self.block_size = block_size
        self.job = job
        self.library = library
        self.store = store or CheckpointStore(job.nranks)
        self.interval_slices = interval_slices
        self.full_every = full_every
        self.keep_payloads = keep_payloads
        tspec = normalize_spec(transport)
        if storage_factory is None:
            if tspec.mode == "diskless":
                storage_factory = lambda rank: DisklessSink(
                    job.engine, capacity=4 * GiB,
                    name=f"ckpt-buddy.r{rank}")
            else:
                storage_factory = lambda rank: Disk(
                    job.engine, SCSI_ULTRA320, name=f"ckpt-disk.r{rank}")
        self._disks = {r: storage_factory(r) for r in range(job.nranks)}
        #: the data path from capture to durability (estimate mode is
        #: the seed behaviour bit for bit)
        self.transport: CheckpointTransport = make_transport(
            tspec, engine=job.engine, network=job.network,
            sinks=self._disks, nranks=job.nranks,
            buddies={r: self._buddy_rank(r) for r in range(job.nranks)})
        #: seconds of backpressure stall charged into later timeslices
        self.stall_time = 0.0
        self._incremental: dict[int, IncrementalCheckpointer] = {}
        self._full = FullCheckpointer()
        self._captures: dict[int, int] = {}
        #: captures taken, per checkpoint kind, and their bytes
        self.captures_by_kind: dict[str, int] = {}
        self.bytes_captured = 0
        #: sub-page (dcp) captures: blocks hashed by each, and blocks
        #: written and bytes saved against page-mode deltas, summed
        self.dcp_blocks_hashed: list[int] = []
        self.dcp_blocks_written = 0
        self.dcp_bytes_saved = 0
        self.globals: dict[int, GlobalCheckpoint] = {}
        #: model copy-on-write interference during write-out windows
        self.cow = cow
        self._writeouts: list[CowWriteout] = []
        #: garbage-collect superseded chains once a newer full checkpoint
        #: commits (bounds stable-storage occupancy; required for
        #: capacity-limited sinks like diskless buddy memory)
        self.gc = gc
        self.bytes_reclaimed = 0
        #: (rank, seq) pairs whose stable-storage write failed
        self.write_failures: list[tuple[int, int]] = []
        #: sequences that must never commit (a piece was lost; the deltas
        #: that built on it are unrecoverable until the next full)
        self._poisoned: set[int] = set()
        #: ranks whose next capture must be full (chain head was lost)
        self._force_full: set[int] = set()
        #: precomputed per-rank track names for the capture hot path
        self._tracks = {r: f"ckpt.r{r}" for r in range(job.nranks)}
        # run after the library's own init hook, so the tracker exists
        job.init_hooks.append(self._on_rank_start)

    def _buddy_rank(self, rank: int) -> int:
        """Diskless buddy: the same slot on the next node, so a node
        loss never takes a checkpoint down with its owner."""
        if self.job.nranks == 1:
            return 0
        buddy = (rank + self.job.procs_per_node) % self.job.nranks
        return buddy if buddy != rank else (rank + 1) % self.job.nranks

    # -- wiring ------------------------------------------------------------------------

    def _on_rank_start(self, ctx: RankContext) -> None:
        rank = ctx.rank
        tracker = self.library.tracker(rank)
        old = self._incremental.get(rank)
        if old is not None:
            old.detach()
        memory = ctx.process.memory
        if (self.block_size is not None
                and self.block_size < memory.page_size):
            inc = DcpCheckpointer(memory, block_size=self.block_size)
        else:
            inc = IncrementalCheckpointer(memory, self.block_size)
        inc.mark_baseline()
        self._incremental[rank] = inc
        self._captures.setdefault(rank, 0)
        tracker.slice_listeners.append(
            lambda record, trk, r=rank: self._on_slice(r, record, trk))

    # -- the per-slice hook -------------------------------------------------------------

    def _on_slice(self, rank: int, record: TimesliceRecord,
                  tracker: DirtyPageTracker) -> None:
        inc = self._incremental[rank]
        inc.observe()
        if (record.index + 1) % self.interval_slices != 0:
            return
        seq = record.index
        n = self._captures[rank]
        self._captures[rank] = n + 1
        now = self.job.engine.now
        memory = tracker.process.memory
        if n % self.full_every == 0 or rank in self._force_full:
            ckpt = self._full.capture(memory, seq, taken_at=now)
            inc.mark_baseline()
            self._force_full.discard(rank)
        else:
            ckpt = inc.capture(seq, taken_at=now)
        if self.keep_payloads:
            # only a kept piece can head a restore, which must reproduce
            # exactly this state (see recovery.apply_chain)
            ckpt = replace(ckpt, state_digest=memory.state_digest())
        kind = ckpt.kind
        self.captures_by_kind[kind] = self.captures_by_kind.get(kind, 0) + 1
        self.bytes_captured += ckpt.nbytes
        if kind == "dcp":
            # sub-page units: inc is the DcpCheckpointer, and its last_*
            # stats describe exactly this capture
            self.dcp_blocks_hashed.append(inc.last_blocks_hashed)
            self.dcp_blocks_written += inc.last_blocks_written
            self.dcp_bytes_saved += max(
                0, inc.last_page_mode_nbytes - ckpt.nbytes)
        tracer = self.job.engine.obs.tracer
        if tracer.enabled and tracer.wants("checkpoint"):
            tracer.instant("capture", "checkpoint", now,
                           track=self._tracks[rank], seq=seq,
                           kind=kind, bytes=ckpt.nbytes)
        self._submit(rank, ckpt, tracker)

    def _submit(self, rank: int, ckpt, tracker: DirtyPageTracker) -> None:
        stall = self._write_out(rank, ckpt)
        if stall > 0.0:
            # backpressure: this slice's IWS outran the drain bandwidth.
            # Charge the stall *after* the alarm handler completes, so it
            # lands in the next timeslice's overhead window -- the next
            # reprotect charge is effectively delayed until the queue
            # has had time to catch up.
            self.stall_time += stall
            self.job.engine.schedule_at(self.job.engine.now,
                                        tracker.charge, stall)

    def _write_out(self, rank: int, ckpt) -> float:
        """Store the piece and hand it to the transport; returns the
        backpressure stall (seconds; 0.0 when the queue is keeping up)."""
        now = self.job.engine.now
        gc = self.globals.get(ckpt.seq)
        if gc is None:
            gc = GlobalCheckpoint(seq=ckpt.seq, kind=ckpt.kind,
                                  requested_at=now)
            self.globals[ckpt.seq] = gc
        self.store.put(rank, ckpt.seq, ckpt.kind, ckpt.nbytes,
                       payload=ckpt if self.keep_payloads else None,
                       stored_at=now)
        gc.total_bytes += ckpt.nbytes
        gc.per_rank_bytes[rank] = ckpt.nbytes
        if self.cow:
            duration = self._disks[rank].write_duration(ckpt.nbytes)
            writeout = CowWriteout(self.job.processes[rank], ckpt, duration)
            self._writeouts.append(writeout)
        stall = self.transport.submit(rank, ckpt.seq, ckpt.nbytes,
                                      self._on_durable)
        if rank == 0 and self.transport.spec.measured:
            self.transport.sample(ckpt.seq)
        return stall

    def _on_durable(self, rank: int, seq: int,
                    done_at: Optional[float]) -> None:
        if done_at is None:           # the stable-storage write failed
            self._on_write_failed(rank, seq)
            return
        if seq in self._poisoned:
            return
        record = self.globals[seq]
        record.ranks_stored += 1
        if record.ranks_stored == self.job.nranks:
            record.committed_at = done_at
            self.store.mark_committed(seq)
            tracer = self.job.engine.obs.tracer
            if tracer.enabled and tracer.wants("checkpoint"):
                tracer.complete("commit", "checkpoint",
                                record.requested_at,
                                record.commit_latency, track="ckpt.global",
                                seq=seq, kind=record.kind,
                                bytes=record.total_bytes)
            if self.gc and record.kind == "full":
                self._collect_garbage(seq)

    def _on_write_failed(self, rank: int, seq: int) -> None:
        """A rank's piece never reached stable storage: that sequence can
        never commit, and any incremental already captured on top of the
        lost piece is unrecoverable too.  Drop them from the store and
        force the rank's next capture to be full, which re-heads its
        chain."""
        self.write_failures.append((rank, seq))
        tracer = self.job.engine.obs.tracer
        if tracer.enabled and tracer.wants("checkpoint"):
            tracer.instant("write-failed", "checkpoint",
                           self.job.engine.now, track=f"ckpt.r{rank}",
                           seq=seq)
        self._poisoned.add(seq)
        self.store.discard(rank, seq)
        # disks are FIFO, so later pieces cannot have become durable yet;
        # discard the orphaned deltas up to (excluding) the next full
        for obj in list(self.store.pieces(rank)):
            if obj.seq <= seq:
                continue
            if obj.kind == "full":
                break
            self._poisoned.add(obj.seq)
            self.store.discard(rank, obj.seq)
        self._force_full.add(rank)

    def _collect_garbage(self, full_seq: int) -> None:
        """A committed full checkpoint supersedes everything before it:
        truncate the chains and hand capacity back to sinks that track
        occupancy (diskless buddy memory)."""
        for rank in range(self.job.nranks):
            reclaimed = self.store.truncate(rank, before_seq=full_seq)
            self.bytes_reclaimed += reclaimed
            sink = self._disks[rank]
            if reclaimed and hasattr(sink, "release"):
                sink.release(min(reclaimed, sink.bytes_held))

    # -- results ------------------------------------------------------------------------

    def committed(self) -> list[GlobalCheckpoint]:
        """All committed global checkpoints, oldest first."""
        return [gc for gc in sorted(self.globals.values(), key=lambda g: g.seq)
                if gc.committed]

    def bytes_to_storage(self) -> int:
        """Total checkpoint bytes written to the sinks (all ranks)."""
        return sum(d.bytes_written for d in self.sinks())

    def cow_stats(self) -> tuple[int, float]:
        """(total copy-on-write page copies, total copy time charged)."""
        return (sum(w.cow_copies for w in self._writeouts),
                sum(w.cow_time for w in self._writeouts))

    def transport_stats(self):
        """Picklable :class:`~repro.checkpoint.transport.TransportStats`
        snapshot (queue ledger, achieved bandwidth, contention)."""
        return self.transport.snapshot()

    def disk(self, rank: int) -> Disk:
        """The storage sink serving one rank."""
        return self._disks[rank]

    def sinks(self) -> list:
        """Every distinct storage sink, once each however many ranks
        share it."""
        return list(dict.fromkeys(self._disks.values()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<CheckpointEngine every={self.interval_slices} slices "
                f"committed={len(self.committed())}>")

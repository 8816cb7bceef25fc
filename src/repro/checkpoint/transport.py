"""The checkpoint transport pipeline: payloads as real scheduled traffic.

The seed engine charged each capture a flat per-sink duration
(``Disk.write`` straight from the capture callback), which can argue
feasibility analytically but cannot *measure* it: checkpoint traffic
never shared the NIC, the wire, or the storage ingest link with
application messages.  A transport routes each captured piece through
the simulated fabric instead:

``estimate`` (the default)
    The seed behaviour, bit for bit: one sink write per capture, no
    network traffic, no backpressure.  Differential tests pin this.
``network``
    The piece is cut into frames that inject serially at the rank's NIC
    (contending with application sends for the transmit link), cross the
    wire, serialize at a shared :class:`~repro.net.network.StoragePort`
    (the aggregate ingest bottleneck of the storage target), and only
    then hit the rank's disk.
``diskless``
    Frames cross the fabric to a *buddy rank's* receive link (incast
    with application traffic on that node) and land in the buddy's
    memory at memcpy speed
    (:meth:`~repro.storage.DisklessSink.reserve_ingest`).

Every rank owns a bounded drain queue.  Bytes enter at capture and
leave at frame durability; the invariant ``enqueued == drained +
in_flight`` holds at every event (property-tested).  When a capture
finds the queue past its bound, :meth:`CheckpointTransport.submit`
returns a *stall*: the seconds of reprotect charge the coordinated
engine defers into the next timeslice -- a slice whose IWS outruns the
drain bandwidth slows the application down instead of queueing
unboundedly.

The measured side of the feasibility verdict
(:meth:`~repro.feasibility.FeasibilityAnalyzer.assess_measured`) reads
a :class:`TransportStats` snapshot: achieved drain bandwidth over the
per-rank busy-interval union plus the per-timeslice contention delay
the fabric charged application messages.  The busy union contains each
rank's transmit-link and sink occupation, so the achieved bandwidth is
bounded by the slower of the wire and the sink: by the envelope's
``sustainable_bandwidth`` in ``network`` mode, but only by the network
in ``diskless`` mode, whose memcpy sink outruns any disk
(:attr:`~repro.feasibility.MeasuredVerdict.drain_bound`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Callable, Optional, Union

from repro.errors import CheckpointError
from repro.sim.engine import PRIORITY_NORMAL
from repro.units import MiB

#: durability callback signature: (rank, seq, done_at-or-None)
DurableFn = Callable[[int, int, Optional[float]], None]

TRANSPORT_MODES = ("estimate", "network", "diskless")


@dataclass(frozen=True)
class TransportSpec:
    """How checkpoint payloads reach stable storage."""

    mode: str = "estimate"
    #: payload cut size; frames inject back-to-back so application
    #: messages can interleave between them at frame boundaries
    frame_bytes: int = 1 * MiB
    #: per-rank drain-queue bound; captures beyond it stall the app
    max_queue_bytes: int = 64 * MiB

    def __post_init__(self) -> None:
        if self.mode not in TRANSPORT_MODES:
            raise CheckpointError(
                f"unknown transport mode {self.mode!r}; "
                f"expected one of {TRANSPORT_MODES}")
        if self.frame_bytes < 1:
            raise CheckpointError(
                f"frame_bytes must be >= 1, got {self.frame_bytes}")
        if self.max_queue_bytes < 1:
            raise CheckpointError(
                f"max_queue_bytes must be >= 1, got {self.max_queue_bytes}")

    @property
    def measured(self) -> bool:
        """Whether this mode produces real traffic worth measuring."""
        return self.mode != "estimate"


def normalize_spec(
        transport: Union[None, str, TransportSpec]) -> TransportSpec:
    """``None``/string/spec -> a :class:`TransportSpec`."""
    if transport is None:
        return TransportSpec()
    if isinstance(transport, TransportSpec):
        return transport
    if isinstance(transport, str):
        return TransportSpec(mode=transport)
    raise CheckpointError(
        f"transport must be a mode string or TransportSpec, "
        f"got {transport!r}")


class DrainQueue:
    """Byte accounting for one rank's outstanding checkpoint data.

    The conservation invariant -- ``enqueued == drained + in_flight`` --
    is the drain pipeline's ledger: every byte a capture hands over is
    either already durable or still somewhere between the NIC and the
    sink, never both and never lost.
    """

    __slots__ = ("enqueued_bytes", "drained_bytes", "in_flight_bytes",
                 "peak_bytes")

    def __init__(self) -> None:
        self.enqueued_bytes = 0
        self.drained_bytes = 0
        self.in_flight_bytes = 0
        self.peak_bytes = 0

    def enqueue(self, nbytes: int) -> None:
        """A capture handed ``nbytes`` to the pipeline."""
        if nbytes < 0:
            raise CheckpointError(f"negative enqueue of {nbytes} bytes")
        self.enqueued_bytes += nbytes
        self.in_flight_bytes += nbytes
        if self.in_flight_bytes > self.peak_bytes:
            self.peak_bytes = self.in_flight_bytes

    def drain(self, nbytes: int) -> None:
        """``nbytes`` reached durability and left the queue."""
        if nbytes < 0:
            raise CheckpointError(f"negative drain of {nbytes} bytes")
        if nbytes > self.in_flight_bytes:
            raise CheckpointError(
                f"draining {nbytes} bytes with only "
                f"{self.in_flight_bytes} in flight")
        self.drained_bytes += nbytes
        self.in_flight_bytes -= nbytes

    @property
    def consistent(self) -> bool:
        return (self.enqueued_bytes
                == self.drained_bytes + self.in_flight_bytes
                and self.in_flight_bytes >= 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<DrainQueue in_flight={self.in_flight_bytes} "
                f"drained={self.drained_bytes}/{self.enqueued_bytes}>")


@dataclass
class TransportStats:
    """Picklable snapshot of one transport's lifetime accounting."""

    mode: str
    pieces: int = 0
    failed_pieces: int = 0
    frames: int = 0
    bytes_submitted: int = 0
    bytes_drained: int = 0
    in_flight_bytes: int = 0
    peak_queue_bytes: int = 0
    stalls: int = 0
    stall_time: float = 0.0
    #: per-rank busy-interval union, summed (seconds of active draining)
    busy_time: float = 0.0
    #: bytes_drained / busy_time (0 when nothing drained)
    achieved_bandwidth: float = 0.0
    #: fabric delay charged to application messages by checkpoint frames
    contention_delay: float = 0.0
    contended_messages: int = 0
    #: cumulative counters sampled at capture boundaries (rank 0)
    samples: list[dict] = field(default_factory=list)

    @property
    def measured(self) -> bool:
        return self.mode != "estimate"

    def per_slice_contention(self) -> list[float]:
        """Checkpoint-induced application-message delay per sampled
        timeslice (differences of the cumulative samples)."""
        out, prev = [], 0.0
        for s in self.samples:
            cur = s["contention_delay"]
            out.append(cur - prev)
            prev = cur
        return out


@dataclass
class _Piece:
    """One rank's capture in flight through the pipeline."""

    seq: int
    on_durable: DurableFn
    #: bytes not yet injected; an empty piece still rides the pipeline
    #: as one zero-byte frame
    to_inject: int
    failed: bool = False
    started_at: Optional[float] = None


class CheckpointTransport:
    """Base transport: drain-queue ledger plus shared accounting."""

    def __init__(self, spec: TransportSpec, engine, sinks: dict,
                 nranks: int):
        self.spec = spec
        self.engine = engine
        self.sinks = sinks
        self.nranks = nranks
        self.queues = {r: DrainQueue() for r in range(nranks)}
        self.pieces = 0
        self.failed_pieces = 0
        self.frames_sent = 0
        self.stalls = 0
        self.stall_time = 0.0
        self._busy_until = [0.0] * nranks
        self._busy_time = [0.0] * nranks
        self._samples: list[dict] = []
        self._obs_cache = None

    # -- the coordinated engine's entry points ------------------------------

    def submit(self, rank: int, seq: int, nbytes: int,
               on_durable: DurableFn) -> float:
        """Hand one captured piece to the pipeline.

        Returns the *stall* in seconds: 0.0 when the rank's queue is
        within bounds, else the time the application must be slowed so
        the drain can catch up (charged by the caller into the next
        timeslice's overhead).
        """
        raise NotImplementedError

    def sample(self, seq: int) -> None:
        """Record one per-timeslice sample of the cumulative counters
        (called at capture boundaries; cheap, append-only)."""
        self._settle()
        self._samples.append({
            "seq": seq,
            "t": self.engine.now,
            "bytes_drained": sum(q.drained_bytes
                                 for q in self.queues.values()),
            "queue_bytes": self._in_flight(),
            "contention_delay": self.contention_delay(),
            "contended_messages": self.contended_messages(),
        })

    # -- accounting ---------------------------------------------------------

    def _settle(self) -> None:
        """Bring the drain ledger up to the engine's position (framed
        transports retire frame durability lazily)."""

    def _in_flight(self) -> int:
        return sum(q.in_flight_bytes for q in self.queues.values())

    def queue_bytes(self) -> int:
        """Bytes currently in flight across every rank's queue."""
        self._settle()
        return self._in_flight()

    def peak_queue_bytes(self) -> int:
        """The deepest any rank's drain queue ever got."""
        return max(q.peak_bytes for q in self.queues.values())

    def contention_delay(self) -> float:
        """Fabric delay charged to application messages (seconds)."""
        return 0.0

    def contended_messages(self) -> int:
        """Application-message link waits attributed to checkpoints."""
        return 0

    def busy_time(self) -> float:
        """Summed per-rank busy-interval union: seconds some piece of a
        rank's data was actively draining (inject start to durable)."""
        return sum(self._busy_time)

    def achieved_bandwidth(self) -> float:
        """Drained bytes over busy time.  Because each rank's busy union
        contains its transmit link's and its sink's occupation, this
        never exceeds the slower of the wire and the sink bandwidth."""
        busy = self.busy_time()
        if busy <= 0.0:
            return 0.0
        self._settle()
        drained = sum(q.drained_bytes for q in self.queues.values())
        return drained / busy

    def snapshot(self) -> TransportStats:
        """Everything the measured feasibility verdict needs, picklable."""
        self._settle()
        return TransportStats(
            mode=self.spec.mode,
            pieces=self.pieces,
            failed_pieces=self.failed_pieces,
            frames=self.frames_sent,
            bytes_submitted=sum(q.enqueued_bytes
                                for q in self.queues.values()),
            bytes_drained=sum(q.drained_bytes for q in self.queues.values()),
            in_flight_bytes=self._in_flight(),
            peak_queue_bytes=self.peak_queue_bytes(),
            stalls=self.stalls,
            stall_time=self.stall_time,
            busy_time=self.busy_time(),
            achieved_bandwidth=self.achieved_bandwidth(),
            contention_delay=self.contention_delay(),
            contended_messages=self.contended_messages(),
            samples=[dict(s) for s in self._samples],
        )

    def _note_busy(self, rank: int, start: float, end: float) -> None:
        lo = max(start, self._busy_until[rank])
        if end > lo:
            self._busy_time[rank] += end - lo
            self._busy_until[rank] = end

    def _gauge_obs(self, obs):
        cache = self._obs_cache
        if cache is None or cache[0] is not obs:
            m = obs.metrics
            cache = self._obs_cache = (
                obs,
                m.gauge("checkpoint.transport.queue_bytes"),
                m.gauge("checkpoint.transport.peak_queue_bytes"),
                m.counter("checkpoint.transport.bytes_drained"),
                m.counter("checkpoint.transport.frames"),
                m.counter("checkpoint.transport.stalls"),
                m.counter("checkpoint.transport.stall_time_s"),
                m.series("checkpoint.transport.drained_bytes"),
            )
        return cache

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<{type(self).__name__} mode={self.spec.mode!r} "
                f"pieces={self.pieces} in_flight={self.queue_bytes()}>")


class EstimateTransport(CheckpointTransport):
    """The seed data path, verbatim: one sink write per capture.

    Event scheduling, future labels, and callback order are exactly what
    ``CheckpointEngine._write_out`` produced before transports existed,
    so estimate-mode simulations are bit-identical to the seed (the
    differential suite pins this).  No frames, no network traffic, no
    backpressure: ``submit`` always returns 0.0.
    """

    def submit(self, rank: int, seq: int, nbytes: int,
               on_durable: DurableFn) -> float:
        self.pieces += 1
        q = self.queues[rank]
        q.enqueue(nbytes)
        start = self.engine.now
        fut = self.sinks[rank].write(nbytes)

        def finish(done_at, q=q, rank=rank, seq=seq, nbytes=nbytes,
                   start=start):
            q.drain(nbytes)
            if done_at is None:
                self.failed_pieces += 1
                self._note_busy(rank, start, self.engine.now)
            else:
                self._note_busy(rank, start, done_at)
            on_durable(rank, seq, done_at)

        fut.add_callback(finish)
        return 0.0


class _FramedTransport(CheckpointTransport):
    """Shared frame machinery of the network and diskless modes.

    Per rank, pieces drain in FIFO order: frames inject back-to-back at
    the rank's NIC (the transmit link stays busy, but application
    messages interleave at frame boundaries because each frame is a
    separate injection), cross the fabric, and reserve their sink on
    arrival.  Both the fabric and the sinks are FIFO, so the head piece
    always completes first, and a piece's last frame is its last to
    become durable.

    Event budget: no engine event per frame, one per piece (the last
    frame's durability, :meth:`_piece_durable`), and one per contiguous
    run of frame-stream entries (:meth:`_pump`).  A frame is two flat
    *stream entries*: its inject step ``(time, PRIORITY_NORMAL, seq,
    rank)`` and its arrival ``(time, PRIORITY_NORMAL, seq, rank, piece,
    nbytes, last)``, each ``seq`` reserved from the engine at the moment
    a per-frame event would have been scheduled.  Arrivals queue on one
    FIFO lane per destination link (a FIFO server, so its keys only
    grow); only each lane's head and each rank's pending inject sit in
    the stream heap.  The heap's head always has one real engine event
    at its own key (:meth:`_arm`); when it fires, the pump runs every
    entry keyed before the engine's :meth:`horizon
    <repro.sim.Engine.horizon>`, each at its exact key
    (:meth:`~repro.sim.Engine.enter`), so every state change happens in
    the global order per-frame events produced.

    Every other frame's durability is a *phantom* event: its key
    ``(done_at, PRIORITY_NORMAL, seq)`` is reserved from the engine at
    the moment the event would have been scheduled and queued on a
    per-rank FIFO.  :meth:`_settle` retires the frames whose key sorts
    before the engine's position into the drain ledger and obs, so every
    reader sees exactly the ledger one durability event per frame would
    produce.

    Subclasses set, per rank, the sink's ``reserve`` (``_reserve``), the
    arrival lane (``_lanes``); and, once, ``_send(rank, nbytes)``:
    ``Network.storage_send`` to the rank's fabric target, the storage
    port or the rank's buddy node.
    """

    def __init__(self, spec: TransportSpec, engine, sinks: dict,
                 nranks: int, network):
        super().__init__(spec, engine, sinks, nranks)
        self.network = network
        #: pieces awaiting durability, per rank, in submission order
        self._pending = [deque() for _ in range(nranks)]
        #: the subset still injecting; its head owns the next frame
        self._to_inject = [deque() for _ in range(nranks)]
        self._injecting = [False] * nranks
        #: rank -> its unsettled frames as ``(done_at, PRIORITY_NORMAL,
        #: seq, nbytes)``, in key order; ranks with none have no entry
        self._unsettled: dict[int, deque] = {}
        #: the frame stream: a heap of pending injects and arrival-lane
        #: heads, and the seqs of its entries that have a pump queued
        self._stream: list[tuple] = []
        self._armed: set[int] = set()
        #: effective drain rate used to convert queue excess to stall
        #: seconds -- the slower of the wire and the sink
        self._drain_rate = min(network.spec.bandwidth,
                               self._sink_rate())

    def _sink_rate(self) -> float:
        raise NotImplementedError

    def submit(self, rank: int, seq: int, nbytes: int,
               on_durable: DurableFn) -> float:
        self._settle()
        self.pieces += 1
        q = self.queues[rank]
        q.enqueue(nbytes)
        piece = _Piece(seq=seq, on_durable=on_durable, to_inject=nbytes)
        self._pending[rank].append(piece)
        self._to_inject[rank].append(piece)
        stall = 0.0
        if q.in_flight_bytes > self.spec.max_queue_bytes:
            # only the part of *this* piece that overflows the bound is
            # charged, so every byte stalls the application at most once
            excess = min(nbytes, q.in_flight_bytes
                         - self.spec.max_queue_bytes)
            stall = excess / self._drain_rate
            self.stalls += 1
            self.stall_time += stall
        obs = self.engine.obs
        if obs.enabled:
            cache = self._gauge_obs(obs)
            cache[1].set(self._in_flight())
            cache[2].set(self.peak_queue_bytes())
            if stall:
                cache[5].inc()
                cache[6].inc(stall)
        if not self._injecting[rank]:
            # the first frame draws its seqs at the submit instant
            self._injecting[rank] = True
            self._inject_next(rank)
            self._arm()
        return stall

    # -- the frame loop -----------------------------------------------------

    def _inject_next(self, rank: int) -> None:
        """Put the rank's next frame on the fabric: queue its arrival,
        then the inject step that follows it."""
        injecting = self._to_inject[rank]
        if not injecting:
            self._injecting[rank] = False
            return
        piece = injecting[0]
        frame = min(self.spec.frame_bytes, piece.to_inject)
        piece.to_inject -= frame
        last = piece.to_inject == 0
        if last:
            injecting.popleft()
        self.frames_sent += 1
        inject_at, inject_done, arrival = self._send(rank, frame)
        if piece.started_at is None:
            piece.started_at = inject_at
        reserve_seq = self.engine.reserve_seq
        entry = (arrival, PRIORITY_NORMAL, reserve_seq(arrival),
                 rank, piece, frame, last)
        lane = self._lanes[rank]
        lane.append(entry)
        if len(lane) == 1:
            heappush(self._stream, entry)
        # the transmit link frees at inject-done; keep the loop going
        # from there so application sends interleave between frames
        heappush(self._stream, (inject_done, PRIORITY_NORMAL,
                                reserve_seq(inject_done), rank))

    def _pump(self) -> None:
        """Run the frame stream up to the engine's next event.

        Each entry runs at its own key, after every engine event keyed
        before it and before every one keyed after it.  An inject entry
        is :meth:`_inject_next`; an arrival reserves its sink here.
        Only a piece's last arrival queues an engine event, so only it
        can lower the horizon."""
        engine = self.engine
        enter = engine.enter
        reserve_seq = engine.reserve_seq
        inject_next = self._inject_next
        lanes = self._lanes
        reserve = self._reserve
        unsettled = self._unsettled
        stream = self._stream
        self._armed.discard(engine.position[2])
        horizon = engine.horizon()
        while stream and stream[0] < horizon:
            entry = heappop(stream)
            enter(entry)
            if len(entry) == 4:
                inject_next(entry[3])
                continue
            _, _, _, rank, piece, frame, last = entry
            lane = lanes[rank]
            lane.popleft()
            if lane:
                heappush(stream, lane[0])
            done_at, ok = reserve[rank](frame)
            if last:
                engine.schedule_at(done_at, self._piece_durable, rank,
                                   piece, frame, ok)
                horizon = engine.horizon()
                continue
            if not ok:
                # read only by the piece's own event, which settles
                # after this frame, so the failure can be recorded now
                piece.failed = True
            fifo = unsettled.get(rank)
            if fifo is None:
                fifo = unsettled[rank] = deque()
            fifo.append((done_at, PRIORITY_NORMAL, reserve_seq(done_at),
                         frame))
        self._arm()

    def _arm(self) -> None:
        """Give the stream's head a pump at its own key, unless it has
        one.  Pumps are never cancelled (``sim.cancelled`` stays an
        exact count of other work): no pump runs past a queued one's
        key, so each finds its own entry at the head when it fires."""
        stream = self._stream
        if stream:
            seq = stream[0][2]
            if seq not in self._armed:
                self._armed.add(seq)
                self.engine.schedule_reserved(stream[0][0], seq, self._pump)

    def _piece_durable(self, rank: int, piece: _Piece, frame: int,
                       ok: bool) -> None:
        """The durability event of a piece's last frame."""
        self._settle()
        now = self.engine.now
        self.queues[rank].drain(frame)
        obs = self.engine.obs
        if obs.enabled:
            cache = self._gauge_obs(obs)
            cache[1].set(self._in_flight())
            cache[3].inc(frame)
            cache[4].inc()
            cache[7].record(now, frame)
        deq = self._pending[rank]
        if not deq or deq[0] is not piece:
            raise CheckpointError(
                f"rank {rank}: piece seq {piece.seq} completed out of "
                "FIFO order")
        deq.popleft()
        self._note_busy(rank, piece.started_at, now)
        if piece.failed or not ok:
            self.failed_pieces += 1
            piece.on_durable(rank, piece.seq, None)
        else:
            piece.on_durable(rank, piece.seq, now)

    def _settle(self) -> None:
        """Drain every queued frame whose phantom durability event sorts
        before the engine's position (ties with a timer at the same
        instant stay in flight: timers sort first)."""
        if not self._unsettled:
            return
        pos = self.engine.position
        obs = self.engine.obs
        settled = [] if obs.enabled else None
        for rank, fifo in list(self._unsettled.items()):
            nbytes = 0
            while fifo and fifo[0] < pos:
                entry = fifo.popleft()
                nbytes += entry[3]
                if settled is not None:
                    settled.append(entry)
            if nbytes:
                self.queues[rank].drain(nbytes)
            if not fifo:
                del self._unsettled[rank]
        if settled:
            # recorded in global (done_at, seq) order, the order their
            # events would have fired: the windowed series drops late
            # samples
            settled.sort()
            cache = self._gauge_obs(obs)
            cache[1].set(self._in_flight())
            cache[3].inc(sum(e[3] for e in settled))
            cache[4].inc(len(settled))
            series = cache[7]
            for entry in settled:
                series.record(entry[0], entry[3])

    # -- accounting ---------------------------------------------------------

    def contention_delay(self) -> float:
        return self.network.ckpt_contention_delay

    def contended_messages(self) -> int:
        return self.network.ckpt_contended_messages


class NetworkTransport(_FramedTransport):
    """Frames cross the fabric to a shared storage port, then the disk.

    The port models the storage target's aggregate ingest link: frames
    from every rank serialize there (the DMTCP-style cluster-wide
    writeback bottleneck), then queue at the rank's disk behind it.
    """

    def __init__(self, spec: TransportSpec, engine, sinks: dict,
                 nranks: int, network):
        super().__init__(spec, engine, sinks, nranks, network)
        port = self.port = network.open_storage_port("ckpt-storage")

        def send(rank: int, nbytes: int):
            return network.storage_send(rank, nbytes, port=port)

        self._send = send
        self._reserve = [sinks[r].reserve for r in range(nranks)]
        # every rank's frames serialize at the one storage port
        self._lanes = [deque()] * nranks

    def _sink_rate(self) -> float:
        rates = []
        for sink in self.sinks.values():
            if hasattr(sink, "spec"):                    # Disk
                rates.append(sink.spec.bandwidth)
            elif hasattr(sink, "aggregate_bandwidth"):   # StorageArray
                rates.append(sink.aggregate_bandwidth())
            else:
                raise CheckpointError(
                    f"network transport needs disk-like sinks, "
                    f"got {sink!r}")
        return min(rates)


class DisklessTransport(_FramedTransport):
    """Frames cross the fabric to a buddy rank's memory.

    The buddy is the co-resident spread ``(rank + procs_per_node) %
    nranks`` mapped by the caller; here the transport only needs the
    destination rank per source.  Frames occupy the buddy's *receive*
    link (incast with application traffic on that node) and then land
    at memcpy speed via :meth:`~repro.storage.DisklessSink.reserve_ingest` --
    the wire was already simulated, so the sink charges memory copy and
    capacity only.
    """

    def __init__(self, spec: TransportSpec, engine, sinks: dict,
                 nranks: int, network, buddies: dict[int, int]):
        super().__init__(spec, engine, sinks, nranks, network)
        for rank in range(nranks):
            if buddies.get(rank) is None:
                raise CheckpointError(f"rank {rank} has no buddy")
            if not hasattr(sinks[rank], "reserve_ingest"):
                raise CheckpointError(
                    f"diskless transport needs DisklessSink-like sinks, "
                    f"got {sinks[rank]!r}")
        self.buddies = buddies

        def send(rank: int, nbytes: int):
            return network.storage_send(rank, nbytes, dst=buddies[rank])

        self._send = send
        self._reserve = [sinks[r].reserve_ingest for r in range(nranks)]
        # frames serialize at their buddy's receive link
        lanes: dict[int, deque] = {}
        self._lanes = [lanes.setdefault(buddies[r], deque())
                       for r in range(nranks)]

    def _sink_rate(self) -> float:
        return min(sink.memcpy_bandwidth for sink in self.sinks.values())


def make_transport(transport: Union[None, str, TransportSpec], *,
                   engine, network, sinks: dict, nranks: int,
                   buddies: Optional[dict[int, int]] = None
                   ) -> CheckpointTransport:
    """Build the transport a :class:`TransportSpec` (or mode string)
    asks for, wired to one job's engine/network/sinks."""
    spec = normalize_spec(transport)
    if spec.mode == "estimate":
        return EstimateTransport(spec, engine, sinks, nranks)
    if spec.mode == "network":
        return NetworkTransport(spec, engine, sinks, nranks, network)
    if buddies is None:
        buddies = {r: (r + 1) % nranks for r in range(nranks)}
    return DisklessTransport(spec, engine, sinks, nranks, network, buddies)

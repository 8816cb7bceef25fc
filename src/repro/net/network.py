"""Message transport over the simulated interconnect.

Timing model per message (cut-through flavoured):

- the sender's NIC injects serially: a message occupies the *transmit
  link* for ``size / bandwidth`` starting when the link is free;
- the wire adds ``latency + per_hop_latency * (hops - 1)`` to the first
  byte;
- the message then occupies the *receive link* for ``size / bandwidth``
  starting when the first byte arrives **and** the receiver's link is
  free -- so concurrent senders to one destination queue up (incast
  contention, which matters for FT's all-to-all transposes).

An uncontended message completes at ``inject + size/bandwidth + wire``
(transmit and receive occupation overlap); there is no global-fabric
contention model beyond the two endpoints -- adequate for the paper's
bulk-synchronous codes whose communication happens in sparse bursts.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import NetworkError
from repro.net.message import Message
from repro.net.models import LinkSpec, QSNET2
from repro.net.topology import Topology
from repro.sim import Engine


class StoragePort:
    """A storage target's ingest link on the fabric.

    Checkpoint frames from every sender serialize here before reaching
    the disks behind it -- the aggregate-storage-bandwidth bottleneck of
    cluster-wide coordinated writeback.  A frame's first byte reaches the
    port one link latency after it injects.
    """

    __slots__ = ("name", "rx_free", "bytes_received", "frames",
                 "busy_time")

    def __init__(self, name: str = "storage"):
        self.name = name
        self.rx_free = 0.0
        self.bytes_received = 0
        self.frames = 0
        self.busy_time = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<StoragePort {self.name!r} frames={self.frames} "
                f"bytes={self.bytes_received}>")


class Network:
    """Delivers :class:`Message`s between nodes with realistic timing."""

    def __init__(self, engine: Engine, nnodes: int,
                 spec: LinkSpec = QSNET2,
                 topology: Optional[Topology] = None):
        if nnodes < 1:
            raise NetworkError(f"need at least one node, got {nnodes}")
        self.engine = engine
        self.nnodes = nnodes
        self.spec = spec
        self.topology = topology or Topology(nnodes)
        #: time each sender's NIC becomes free to inject the next message
        self._tx_free: list[float] = [0.0] * nnodes
        #: time each receiver's link becomes free (incast queueing)
        self._rx_free: list[float] = [0.0] * nnodes
        #: delivery callbacks per destination node
        self._sinks: list[Optional[Callable[[Message], None]]] = [None] * nnodes
        #: the one bound-method object every delivery shares --
        #: Engine.schedule_coalesced compares callables by identity, and
        #: ``self._deliver`` would mint a fresh bound method per access
        self._deliver_one = self._deliver
        # statistics
        self.messages_sent = 0
        self.bytes_sent = 0
        self.messages_delivered = 0
        self.bytes_delivered = 0
        #: cached (obs, tracer-or-None, track names) for sends
        self._obs_cache = None
        # -- checkpoint-transport accounting --
        #: per-node time up to which checkpoint frames occupy tx/rx
        self._ckpt_tx_until: list[float] = [0.0] * nnodes
        self._ckpt_rx_until: list[float] = [0.0] * nnodes
        self.storage_ports: list[StoragePort] = []
        #: fabric delay charged to application messages by checkpoint
        #: frames ahead of them on a link (a lower bound: waits behind
        #: app messages that are themselves delayed are not attributed)
        self.ckpt_contention_delay = 0.0
        self.ckpt_contended_messages = 0
        self.ckpt_frames_sent = 0
        self.ckpt_bytes_sent = 0

    def attach(self, node: int, sink: Callable[[Message], None]) -> None:
        """Register the delivery callback (the NIC) for ``node``."""
        self._check_node(node)
        self._sinks[node] = sink

    def _route(self, msg: Message, now: float) -> float:
        """Advance the link-occupation clocks for ``msg`` and stamp its
        send/arrival times; returns the arrival time.

        A wait on a link is attributed to checkpoint frames where it
        overlaps their occupancy (:meth:`_note_contention`).  Before the
        first frame (:meth:`storage_send`) the frame clocks are all 0.0,
        so no wait is attributed and a network without a checkpoint
        transport counts nothing."""
        msg.send_time = now
        if msg.src == msg.dst:
            # loopback: no wire, just a copy at memory speed (the
            # bandwidth term only); copies still serialize at the node
            start = max(now, self._tx_free[msg.src])
            if start > now:
                self._note_contention(msg.src, now, start,
                                      self._ckpt_tx_until)
            arrival = start + msg.size / self.spec.bandwidth
            self._tx_free[msg.src] = arrival
        else:
            serialize = msg.size / self.spec.bandwidth
            inject_at = max(now, self._tx_free[msg.src])
            self._tx_free[msg.src] = inject_at + serialize
            hops = self.topology.hops(msg.src, msg.dst)
            first_byte = (inject_at + self.spec.latency
                          + self.spec.per_hop_latency * max(0, hops - 1))
            start_rx = max(first_byte, self._rx_free[msg.dst])
            arrival = start_rx + serialize
            self._rx_free[msg.dst] = arrival
            if inject_at > now:
                self._note_contention(msg.src, now, inject_at,
                                      self._ckpt_tx_until)
            if start_rx > first_byte:
                self._note_contention(msg.dst, first_byte, start_rx,
                                      self._ckpt_rx_until)
        msg.arrival_time = arrival
        return arrival

    def _note_contention(self, node: int, free_from: float, start: float,
                         busy_until: list[float]) -> None:
        """An application message waited on a link: attribute the part of
        the wait that overlaps checkpoint-frame occupancy."""
        busy = busy_until[node]
        if busy > free_from:
            self.ckpt_contended_messages += 1
            self.ckpt_contention_delay += min(start, busy) - free_from

    def _send_obs(self, obs):
        """Per-obs cached tracer and track names for the send hot path."""
        cache = self._obs_cache
        if cache is None or cache[0] is not obs:
            tracer = obs.tracer
            cache = self._obs_cache = (
                obs,
                tracer if tracer.enabled and tracer.wants("net") else None,
                [f"net.tx{n}" for n in range(self.nnodes)],
            )
        return cache

    def send(self, msg: Message) -> float:
        """Inject ``msg``; returns its arrival time at the destination."""
        self._check_node(msg.src)
        self._check_node(msg.dst)
        # note: a missing sink at the destination is tolerated -- the
        # message is dropped at delivery time, which is how sends to a
        # failed node behave under failure injection.
        now = self.engine.now
        arrival = self._route(msg, now)
        self.messages_sent += 1
        self.bytes_sent += msg.size
        obs = self.engine.obs
        if obs.enabled:
            _, tracer, tx_tracks = self._send_obs(obs)
            if tracer is not None:
                tracer.complete("net.send", "net", now, arrival - now,
                                track=tx_tracks[msg.src], dst=msg.dst,
                                size=msg.size, tag=msg.tag)
        # same-arrival deliveries -- across senders, not just within
        # one batch -- share a single engine event, drained in send
        # order (the order separate events would have fired in)
        self.engine.schedule_coalesced(arrival, self._deliver_one, msg)
        return arrival

    def send_many(self, msgs: list[Message]) -> list[float]:
        """Inject a batch (one sender's collective fan-out); returns the
        arrival times.

        Timing, byte accounting, obs events and deliveries are exactly
        what :meth:`send` called once per message would produce -- the
        batch shares one obs lookup, and each delivery joins the
        engine's same-arrival batch the way :meth:`send`'s does.  Every
        node is checked before the first message routes, so a rejected
        batch leaves the link clocks and the event queue untouched.
        """
        if not msgs:
            return []
        if len(msgs) == 1:
            return [self.send(msgs[0])]
        check = self._check_node
        for msg in msgs:
            check(msg.src)
            check(msg.dst)
        now = self.engine.now
        obs = self.engine.obs
        tracer = None
        if obs.enabled:
            _, tracer, tx_tracks = self._send_obs(obs)
        schedule_coalesced = self.engine.schedule_coalesced
        deliver_one = self._deliver_one
        arrivals: list[float] = []
        for msg in msgs:
            arrival = self._route(msg, now)
            self.bytes_sent += msg.size
            if tracer is not None:
                tracer.complete("net.send", "net", now, arrival - now,
                                track=tx_tracks[msg.src], dst=msg.dst,
                                size=msg.size, tag=msg.tag)
            arrivals.append(arrival)
            schedule_coalesced(arrival, deliver_one, msg)
        self.messages_sent += len(msgs)
        return arrivals

    # -- checkpoint transport ----------------------------------------------------

    def open_storage_port(self, name: str = "storage") -> StoragePort:
        """Attach a storage target's ingest link to the fabric."""
        port = StoragePort(name)
        self.storage_ports.append(port)
        return port

    def storage_send(self, src: int, nbytes: int, *,
                     port: Optional[StoragePort] = None,
                     dst: Optional[int] = None
                     ) -> tuple[float, float, float]:
        """Put one checkpoint frame on the fabric.

        The frame occupies the sender's transmit link exactly like an
        application message (so the two contend), crosses the wire, and
        serializes at either a :class:`StoragePort` (shared storage
        ingest) or a peer node's receive link (``dst``, diskless buddy).
        Returns ``(inject_at, inject_done, arrival)``; the caller
        schedules its own arrival handling -- no :class:`Message` is
        delivered.
        """
        nnodes = self.nnodes
        if not 0 <= src < nnodes:
            raise NetworkError(f"node {src} outside network of {nnodes}")
        if (port is None) == (dst is None):
            raise NetworkError(
                "storage_send needs exactly one of port= or dst=")
        if dst is not None and not 0 <= dst < nnodes:
            raise NetworkError(f"node {dst} outside network of {nnodes}")
        if nbytes < 0:
            raise NetworkError(f"negative frame size {nbytes}")
        now = self.engine.now
        spec = self.spec
        serialize = nbytes / spec.bandwidth
        tx_free = self._tx_free[src]
        inject_at = tx_free if tx_free > now else now
        inject_done = inject_at + serialize
        self._tx_free[src] = inject_done
        if inject_done > self._ckpt_tx_until[src]:
            self._ckpt_tx_until[src] = inject_done
        if port is not None:
            first_byte = inject_at + spec.latency
            rx_free = port.rx_free
            arrival = (rx_free if rx_free > first_byte
                       else first_byte) + serialize
            port.rx_free = arrival
            port.bytes_received += nbytes
            port.frames += 1
            port.busy_time += serialize
            target = port.name
        else:
            # same float order as ``_route``: latency, then the hop term
            first_byte = (inject_at + spec.latency + spec.per_hop_latency
                          * max(0, self.topology.hops(src, dst) - 1))
            rx_free = self._rx_free[dst]
            arrival = (rx_free if rx_free > first_byte
                       else first_byte) + serialize
            self._rx_free[dst] = arrival
            if arrival > self._ckpt_rx_until[dst]:
                self._ckpt_rx_until[dst] = arrival
            target = dst
        self.ckpt_frames_sent += 1
        self.ckpt_bytes_sent += nbytes
        obs = self.engine.obs
        if obs.enabled:
            tracer = obs.tracer
            if tracer.enabled and tracer.wants("net"):
                tracer.complete("ckpt.frame", "net", inject_at,
                                arrival - inject_at,
                                track=f"net.tx{src}", target=target,
                                size=nbytes)
        return inject_at, inject_done, arrival

    def _deliver(self, msg: Message) -> None:
        sink = self._sinks[msg.dst]
        if sink is None:  # detached mid-flight (node failure)
            return
        self.messages_delivered += 1
        self.bytes_delivered += msg.size
        sink(msg)

    def detach(self, node: int) -> None:
        """Remove a node's NIC (failure injection): in-flight messages to
        it are dropped on arrival."""
        self._check_node(node)
        self._sinks[node] = None

    def _check_node(self, node: int) -> None:
        if not (0 <= node < self.nnodes):
            raise NetworkError(f"node {node} outside network of {self.nnodes}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Network {self.spec.name!r} nnodes={self.nnodes} "
                f"delivered={self.messages_delivered}>")

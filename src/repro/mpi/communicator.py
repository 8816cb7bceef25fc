"""Point-to-point messaging with MPI matching semantics.

Matching follows the MPI rules: a posted receive names a source and tag
(either may be a wildcard) and matches arrivals in order; messages that
arrive before a matching receive is posted wait in the unexpected queue.

Both sides of the match are indexed so the common case is O(1):

- posted receives live in per-``(source, tag)`` deques keyed exactly as
  posted (wildcards included), stamped with a post sequence number.  An
  arrival probes the four keys that could match it -- ``(src, tag)``,
  ``(src, ANY)``, ``(ANY, tag)``, ``(ANY, ANY)`` -- and takes the head
  with the smallest stamp, which is the *oldest compatible posted
  receive* exactly as the linear scan found it;
- unexpected messages live in per-``(src, tag)`` deques (both concrete
  on arrival) stamped with an arrival sequence number.  A specific
  receive pops its class head in O(1); a wildcard receive falls back to
  scanning the heads of the live classes for the smallest stamp -- the
  *oldest compatible arrival*.  Empty deques are deleted eagerly, so
  the fallback scan is bounded by classes with messages actually
  queued (collectives mint fresh tags forever; stale keys must not
  accumulate).

Delivery into user memory goes through the NIC: by default the QsNet
direct path (DMA, invisible to dirty tracking); when the instrumentation
library has installed its receive interceptor, the bounce-buffer path
(CPU copy, ordinary faults, plus a copy-time overhead on the receiver).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.errors import MPIError, RankError
from repro.net import Message, Network, NIC
from repro.sim import Engine, Future

ANY_SOURCE: int = -1
ANY_TAG: int = -1


@dataclass(slots=True)
class PostedRecv:
    """A receive waiting for a matching message."""

    source: int
    tag: int
    addr: Optional[int]
    size: int
    future: Future = field(repr=False)
    #: post-order stamp; ties across match classes resolve to the oldest
    seq: int = 0


def _finish_recv(item: tuple["RankComm", Future, Message]) -> None:
    """Complete one bounce-buffer receive once its copy time has passed:
    run the rank's receive listeners, then resolve the receive.

    Module-level so its identity is stable: completions due at the same
    instant share one coalesced engine event
    (:meth:`repro.sim.Engine.schedule_coalesced`)."""
    comm, future, msg = item
    for listener in comm.receive_listeners:
        listener(msg)
    future.resolve(msg)


class World:
    """The communicator shared by all ranks of one job."""

    def __init__(self, engine: Engine, network: Network, nics: list[NIC]):
        self.engine = engine
        self.network = network
        self.nics = nics
        self.size = len(nics)
        if self.size < 1:
            raise MPIError("world needs at least one rank")
        self.ranks = [RankComm(self, r) for r in range(self.size)]
        for rank_comm, nic in zip(self.ranks, nics):
            nic.on_message = rank_comm._on_arrival

    def comm(self, rank: int) -> "RankComm":
        """The endpoint of one rank."""
        if not (0 <= rank < self.size):
            raise RankError(rank, self.size)
        return self.ranks[rank]


class RankComm:
    """One rank's endpoint: send/recv plus collective helpers."""

    # collective op codes used to build reserved (negative) tags
    _BARRIER, _BCAST, _REDUCE, _GATHER, _ALLGATHER, _ALLTOALL = range(6)

    def __init__(self, world: World, rank: int):
        self.world = world
        self.rank = rank
        #: posted receives, keyed by (source, tag) exactly as posted
        self._pending_by_key: dict[tuple[int, int], deque[PostedRecv]] = {}
        #: unexpected messages, keyed by concrete (src, tag); entries are
        #: (arrival_seq, Message)
        self._unexp_by_key: dict[tuple[int, int],
                                 deque[tuple[int, Message]]] = {}
        self._post_seq = 0
        self._arrival_seq = 0
        self._coll_seq = 0
        #: interception decision hook installed by the instrumentation
        #: library; None means raw QsNet DMA deposits.
        self.recv_interceptor: Optional[Callable[[Message], bool]] = None
        #: accounting callbacks fired at receive completion
        self.receive_listeners: list[Callable[[Message], None]] = []
        self.bytes_sent = 0
        self.bytes_received = 0

    # -- properties ---------------------------------------------------------------

    @property
    def size(self) -> int:
        return self.world.size

    @property
    def engine(self) -> Engine:
        return self.world.engine

    @property
    def nic(self) -> NIC:
        return self.world.nics[self.rank]

    # -- point to point ---------------------------------------------------------------

    def send(self, dest: int, nbytes: int, tag: int = 0,
             payload: Any = None) -> Message:
        """Eager send: inject and return immediately (the NIC serializes
        back-to-back sends; the sender does not block)."""
        if not (0 <= dest < self.size):
            raise RankError(dest, self.size)
        if tag < 0:
            raise MPIError(f"application tags must be non-negative, got {tag}")
        return self._send(dest, nbytes, tag, payload)

    def _send(self, dest: int, nbytes: int, tag: int, payload: Any) -> Message:
        msg = Message(src=self.rank, dst=dest, size=nbytes, tag=tag,
                      payload=payload)
        self.world.network.send(msg)
        self.bytes_sent += nbytes
        return msg

    def send_many(self, dests: Sequence[int], nbytes: int, tag: int = 0,
                  payload: Any = None) -> list[Message]:
        """Eager fan-out: one ``nbytes`` message to each destination, in
        order, through the network's batched injection path.

        Timing, accounting and delivery order are identical to calling
        :meth:`send` once per destination; the batch only shares the
        network's obs lookup (:meth:`repro.net.Network.send_many`).
        """
        if tag < 0:
            raise MPIError(f"application tags must be non-negative, got {tag}")
        return self._send_many(dests, nbytes, tag, payload)

    def _send_many(self, dests: Sequence[int], nbytes: int, tag: int,
                   payload: Any) -> list[Message]:
        size = self.size
        for dest in dests:
            if not (0 <= dest < size):
                raise RankError(dest, size)
        msgs = [Message(src=self.rank, dst=dest, size=nbytes, tag=tag,
                        payload=payload) for dest in dests]
        self.world.network.send_many(msgs)
        self.bytes_sent += nbytes * len(msgs)
        return msgs

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG, *,
             addr: Optional[int] = None, size: int = 0) -> Future:
        """Post a receive; returns a Future resolving with the Message.

        ``addr`` is the destination buffer in this rank's address space;
        when given, delivery writes the payload there (dirtying pages via
        whichever NIC path is active).  ``size`` bounds the acceptable
        message (0 = unbounded).
        """
        if source != ANY_SOURCE and not (0 <= source < self.size):
            raise RankError(source, self.size)
        fut = Future(self.engine, label=f"rank{self.rank}.recv")
        posted = PostedRecv(source=source, tag=tag, addr=addr, size=size,
                            future=fut, seq=self._post_seq)
        self._post_seq += 1
        msg = self._take_unexpected(source, tag)
        if msg is not None:
            self._complete(posted, msg)
            return fut
        dq = self._pending_by_key.get((source, tag))
        if dq is None:
            dq = self._pending_by_key[(source, tag)] = deque()
        dq.append(posted)
        return fut

    def _take_unexpected(self, source: int, tag: int) -> Optional[Message]:
        """Pop and return the oldest queued message matching
        ``(source, tag)``, or None."""
        unexp = self._unexp_by_key
        if not unexp:
            return None
        if source != ANY_SOURCE and tag != ANY_TAG:
            key = (source, tag)
            dq = unexp.get(key)
            if dq is None:
                return None
        else:
            # wildcard fallback: oldest arrival across compatible classes
            # (only heads are inspected; classes with no messages were
            # deleted when they drained)
            key = None
            best = -1
            for k, cand in unexp.items():
                if ((source == ANY_SOURCE or source == k[0])
                        and (tag == ANY_TAG or tag == k[1])):
                    seq = cand[0][0]
                    if key is None or seq < best:
                        key, best = k, seq
            if key is None:
                return None
            dq = unexp[key]
        _, msg = dq.popleft()
        if not dq:
            del unexp[key]
        return msg

    def _on_arrival(self, msg: Message) -> None:
        pending = self._pending_by_key
        if pending:
            # the four keys a (src, tag) arrival can match; oldest post wins
            best_key = None
            best_posted = None
            for key in ((msg.src, msg.tag), (msg.src, ANY_TAG),
                        (ANY_SOURCE, msg.tag), (ANY_SOURCE, ANY_TAG)):
                dq = pending.get(key)
                if dq and (best_posted is None
                           or dq[0].seq < best_posted.seq):
                    best_key, best_posted = key, dq[0]
            if best_posted is not None:
                dq = pending[best_key]
                dq.popleft()
                if not dq:
                    del pending[best_key]
                self._complete(best_posted, msg)
                return
        key = (msg.src, msg.tag)
        dq = self._unexp_by_key.get(key)
        if dq is None:
            dq = self._unexp_by_key[key] = deque()
        dq.append((self._arrival_seq, msg))
        self._arrival_seq += 1

    # -- introspection (ordered views of the indexed queues) -----------------------

    @property
    def _pending(self) -> list[PostedRecv]:
        """Posted receives in post order (a snapshot; tests and debugging
        read this -- the matcher itself uses the indexed deques)."""
        out = [p for dq in self._pending_by_key.values() for p in dq]
        out.sort(key=lambda p: p.seq)
        return out

    @property
    def _unexpected(self) -> list[Message]:
        """Unexpected messages in arrival order (a snapshot)."""
        out = [e for dq in self._unexp_by_key.values() for e in dq]
        out.sort(key=lambda e: e[0])
        return [msg for _, msg in out]

    def _complete(self, posted: PostedRecv, msg: Message) -> None:
        if posted.size and msg.size > posted.size:
            raise MPIError(
                f"rank {self.rank}: message of {msg.size} bytes overflows "
                f"posted receive buffer of {posted.size}")
        copy_time = 0.0
        if posted.addr is not None and msg.size > 0:
            intercept = (self.recv_interceptor(msg)
                         if self.recv_interceptor is not None else False)
            result = self.nic.deposit(posted.addr, msg.size, intercept=intercept)
            copy_time = result.copy_time
        self.bytes_received += msg.size
        item = (self, posted.future, msg)
        if copy_time > 0:
            engine = self.world.engine
            engine.schedule_coalesced(engine.now + copy_time, _finish_recv,
                                      item)
        else:
            _finish_recv(item)

    # -- collective helpers (yield from these inside rank bodies) ------------------------

    def _coll_tag(self, op: int, seq: int, round_: int) -> int:
        return -(seq * 64 + op * 8 + round_ + 1)

    def barrier(self):
        """Dissemination barrier: ceil(log2(size)) rounds of header-size
        messages."""
        seq = self._coll_seq
        self._coll_seq += 1
        n = self.size
        k = 0
        dist = 1
        while dist < n:
            tag = self._coll_tag(self._BARRIER, seq, k)
            self._send((self.rank + dist) % n, 0, tag, None)
            yield self.recv(source=(self.rank - dist) % n, tag=tag)
            dist *= 2
            k += 1

    def bcast(self, value: Any = None, root: int = 0, nbytes: int = 0,
              addr: Optional[int] = None):
        """Binomial-tree broadcast; the generator returns the value."""
        self._check_root(root)
        seq = self._coll_seq
        self._coll_seq += 1
        n = self.size
        vrank = (self.rank - root) % n
        tag = self._coll_tag(self._BCAST, seq, 0)
        # canonical binomial tree (MPICH style): receive from the parent
        # (vrank with its lowest set bit cleared), then forward downward.
        mask = 1
        while mask < n:
            if vrank & mask:
                parent_v = vrank - mask
                msg = yield self.recv(source=(parent_v + root) % n, tag=tag,
                                      addr=addr, size=nbytes or 0)
                value = msg.payload
                break
            mask <<= 1
        mask >>= 1
        children = []
        while mask > 0:
            if vrank + mask < n and not (vrank & mask):
                children.append(((vrank + mask) + root) % n)
            mask >>= 1
        if children:
            self._send_many(children, nbytes, tag, value)
        return value

    def reduce(self, value: Any, op: Callable[[Any, Any], Any] = None,
               root: int = 0, nbytes: int = 0):
        """Binomial-tree reduction toward ``root``; returns the reduced
        value at the root (None elsewhere)."""
        self._check_root(root)
        if op is None:
            op = lambda a, b: a + b
        seq = self._coll_seq
        self._coll_seq += 1
        n = self.size
        vrank = (self.rank - root) % n
        acc = value
        dist = 1
        while dist < n:
            tag = self._coll_tag(self._REDUCE, seq, 0)
            if vrank & dist:
                self._send(((vrank - dist) + root) % n, nbytes, tag, acc)
                return None
            partner_v = vrank | dist
            if partner_v < n:
                msg = yield self.recv(source=(partner_v + root) % n, tag=tag)
                acc = op(acc, msg.payload)
            dist *= 2
        return acc

    def allreduce(self, value: Any, op: Callable[[Any, Any], Any] = None,
                  nbytes: int = 0):
        """reduce to rank 0 + bcast; returns the reduced value everywhere."""
        reduced = yield from self.reduce(value, op=op, root=0, nbytes=nbytes)
        result = yield from self.bcast(reduced, root=0, nbytes=nbytes)
        return result

    def gather(self, value: Any, root: int = 0, nbytes: int = 0):
        """Linear gather; returns the list at the root (None elsewhere)."""
        self._check_root(root)
        seq = self._coll_seq
        self._coll_seq += 1
        tag = self._coll_tag(self._GATHER, seq, 0)
        if self.rank != root:
            self._send(root, nbytes, tag, value)
            return None
        out: list[Any] = [None] * self.size
        out[root] = value
        for _ in range(self.size - 1):
            msg = yield self.recv(source=ANY_SOURCE, tag=tag)
            out[msg.src] = msg.payload
        return out

    def allgather(self, value: Any, nbytes: int = 0):
        """Ring allgather: size-1 rounds; returns the full list."""
        seq = self._coll_seq
        self._coll_seq += 1
        n = self.size
        out: list[Any] = [None] * n
        out[self.rank] = value
        right = (self.rank + 1) % n
        left = (self.rank - 1) % n
        carry_rank, carry = self.rank, value
        for r in range(n - 1):
            tag = self._coll_tag(self._ALLGATHER, seq, r % 8)
            self._send(right, nbytes, tag, (carry_rank, carry))
            msg = yield self.recv(source=left, tag=tag)
            carry_rank, carry = msg.payload
            out[carry_rank] = carry
        return out

    def alltoall(self, values: list[Any], nbytes_each: int = 0,
                 addr: Optional[int] = None):
        """Pairwise-exchange all-to-all; returns the received list.

        ``nbytes_each`` is the per-pair payload size (FT's transpose sends
        footprint/size**2 bytes to every peer).  When ``addr`` is given,
        each arriving block lands there sequentially.
        """
        if len(values) != self.size:
            raise MPIError(
                f"alltoall needs {self.size} values, got {len(values)}")
        seq = self._coll_seq
        self._coll_seq += 1
        n = self.size
        out: list[Any] = [None] * n
        out[self.rank] = values[self.rank]
        for r in range(1, n):
            # rotation schedule works for any communicator size: in round
            # r, send to rank+r and receive from rank-r (sends are eager,
            # so the cycle cannot deadlock)
            dst = (self.rank + r) % n
            src = (self.rank - r) % n
            tag = self._coll_tag(self._ALLTOALL, seq, r % 8)
            self._send(dst, nbytes_each, tag, values[dst])
            dest = (addr + (r - 1) * nbytes_each) if addr is not None else None
            msg = yield self.recv(source=src, tag=tag, addr=dest,
                                  size=nbytes_each or 0)
            out[src] = msg.payload
        return out

    # -- misc ---------------------------------------------------------------------

    def _check_root(self, root: int) -> None:
        if not (0 <= root < self.size):
            raise RankError(root, self.size)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RankComm rank={self.rank}/{self.size}>"

"""The batched injection path must be indistinguishable from per-message
sends -- same arrival times, same byte accounting, same obs events --
while coalescing equal-arrival deliveries into one engine event."""

import pytest

from repro.errors import MPIError, NetworkError, RankError
from repro.mpi import MPIJob
from repro.net import Message, Network
from repro.obs import Observability, Tracer
from repro.sim import Engine


def collect_network(nnodes=4, obs=None):
    eng = Engine(obs=obs) if obs is not None else Engine()
    net = Network(eng, nnodes)
    delivered = []
    for node in range(nnodes):
        net.attach(node, lambda m, n=node: delivered.append((n, m.mid)))
    return eng, net, delivered


def test_send_many_matches_per_message_timing():
    msgs_a = [Message(src=0, dst=d, size=4096, tag=1) for d in (1, 2, 3)]
    msgs_b = [Message(src=0, dst=d, size=4096, tag=1) for d in (1, 2, 3)]

    eng1, net1, _ = collect_network()
    singles = [net1.send(m) for m in msgs_a]
    eng2, net2, _ = collect_network()
    batched = net2.send_many(msgs_b)

    assert batched == singles
    assert [m.arrival_time for m in msgs_b] == [m.arrival_time for m in msgs_a]
    assert [m.send_time for m in msgs_b] == [m.send_time for m in msgs_a]


def test_send_many_delivers_in_submission_order():
    eng, net, delivered = collect_network()
    # zero-byte control messages to one destination coalesce: same
    # arrival time, one engine event, delivery in submission order
    msgs = [Message(src=0, dst=1, size=0, tag=t) for t in range(5)]
    pending_before = eng.pending_events()
    net.send_many(msgs)
    assert eng.pending_events() == pending_before + 1  # coalesced
    eng.run()
    assert delivered == [(1, m.mid) for m in msgs]


def test_send_many_keeps_distinct_arrival_events_distinct():
    eng, net, delivered = collect_network()
    msgs = [Message(src=0, dst=d, size=8192, tag=0) for d in (1, 2, 3)]
    net.send_many(msgs)
    # tx serialization staggers the arrivals: no two may share an event
    arrivals = [m.arrival_time for m in msgs]
    assert len(set(arrivals)) == 3
    assert eng.pending_events() == 3
    eng.run()
    assert delivered == [(d, m.mid) for d, m in zip((1, 2, 3), msgs)]


def test_send_many_counters_and_trace_match_per_message():
    def run(batch):
        tracer = Tracer(wall_clock=None)
        eng, net, _ = collect_network(obs=Observability(tracer=tracer))
        msgs = [Message(src=0, dst=d, size=1024, tag=2) for d in (1, 2)]
        if batch:
            net.send_many(msgs)
        else:
            for m in msgs:
                net.send(m)
        eng.run()
        return tracer.events, (net.messages_sent, net.bytes_sent)

    assert run(batch=True) == run(batch=False)
    assert run(batch=True)[1] == (2, 2048)


def test_send_many_empty_batch_is_noop():
    eng, net, delivered = collect_network()
    assert net.send_many([]) == []
    assert eng.pending_events() == 0


def test_send_many_single_message_short_circuits_to_send():
    """A one-element batch takes the plain ``send`` path and is
    indistinguishable from calling ``send``."""
    eng1, net1, d1 = collect_network()
    m1 = Message(src=0, dst=2, size=2048, tag=7)
    batched = net1.send_many([m1])

    eng2, net2, d2 = collect_network()
    m2 = Message(src=0, dst=2, size=2048, tag=7)
    single = net2.send(m2)

    assert batched == [single]
    assert (m1.send_time, m1.arrival_time) == (m2.send_time, m2.arrival_time)
    assert eng1.pending_events() == eng2.pending_events() == 1
    eng1.run()
    eng2.run()
    assert d1 == [(2, m1.mid)]
    assert d2 == [(2, m2.mid)]


def test_send_many_rejects_a_bad_batch_before_routing_any_of_it():
    """A batch with an out-of-range node raises like ``send`` does and,
    like ``send``, leaves nothing behind: no link clock advanced and no
    delivery queued for the valid messages ahead of the bad one."""
    eng, net, delivered = collect_network(nnodes=2)
    tx, rx = list(net._tx_free), list(net._rx_free)
    pending = eng.pending_events()
    with pytest.raises(NetworkError):
        net.send_many([Message(src=0, dst=1, size=1 << 20, tag=0),
                       Message(src=0, dst=5, size=1, tag=0)])
    assert net._tx_free == tx
    assert net._rx_free == rx
    assert eng.pending_events() == pending
    eng.run()
    assert delivered == []


def test_comm_send_many_accounting_and_validation():
    eng = Engine()
    job = MPIJob(eng, 4)
    comm = job.world.comm(0)
    msgs = comm.send_many([1, 2, 3], 500, tag=3)
    assert [m.dst for m in msgs] == [1, 2, 3]
    assert comm.bytes_sent == 1500
    with pytest.raises(MPIError):
        comm.send_many([1], 10, tag=-2)
    with pytest.raises(RankError):
        comm.send_many([1, 9], 10, tag=0)


def test_comm_send_many_matches_sequential_sends():
    def run(batch):
        eng = Engine()
        job = MPIJob(eng, 4)
        got = []

        def sender(ctx):
            if batch:
                ctx.comm.send_many([1, 2, 3], 256, tag=1)
            else:
                for d in (1, 2, 3):
                    ctx.comm.send(d, 256, tag=1)
            yield from ()

        def receiver(ctx):
            msg = yield ctx.comm.recv(source=0, tag=1)
            got.append((ctx.rank, ctx.engine.now, msg.size))

        job.launch(lambda ctx: sender(ctx) if ctx.rank == 0
                   else receiver(ctx))
        eng.run(detect_deadlock=True)
        return got

    assert run(batch=True) == run(batch=False)

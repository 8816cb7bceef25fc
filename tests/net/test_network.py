"""Unit tests for link models, topology, and the network."""

import math
from collections import deque

import pytest

from repro.errors import ConfigurationError, NetworkError
from repro.mpi.runtime import RankTopology
from repro.net import ETHERNET_100M, LinkSpec, Message, Network, QSNET2, Topology
from repro.sim import Engine
from repro.units import MiB


def test_linkspec_transfer_time():
    spec = LinkSpec("test", bandwidth=100.0, latency=1.0, per_hop_latency=0.5)
    assert spec.transfer_time(200, hops=1) == pytest.approx(1.0 + 2.0)
    assert spec.transfer_time(200, hops=3) == pytest.approx(1.0 + 1.0 + 2.0)
    assert spec.transfer_time(0) == pytest.approx(1.0)


def test_linkspec_validation():
    with pytest.raises(ConfigurationError):
        LinkSpec("bad", bandwidth=0, latency=1.0)
    with pytest.raises(ConfigurationError):
        LinkSpec("bad", bandwidth=1.0, latency=-1)
    with pytest.raises(ConfigurationError):
        QSNET2.transfer_time(-5)


def test_qsnet_peak_bandwidth_matches_paper():
    assert QSNET2.bandwidth == 900 * MiB
    # a 900 MB message takes ~1 s on the wire
    assert QSNET2.transfer_time(900 * MiB) == pytest.approx(1.0, rel=1e-3)


def test_message_validation():
    with pytest.raises(NetworkError):
        Message(src=0, dst=1, size=-1)


def test_message_ids_unique():
    a = Message(src=0, dst=1, size=10)
    b = Message(src=0, dst=1, size=10)
    assert a.mid != b.mid


# -- topology ----------------------------------------------------------------

def test_topology_star_two_hops():
    topo = Topology(8, shape="star")
    assert topo.hops(0, 7) == 2
    assert topo.hops(3, 3) == 0


def test_topology_fat_tree_same_leaf():
    topo = Topology(8, shape="fat-tree", radix=4)
    assert topo.hops(0, 1) == 2          # same leaf switch
    assert topo.hops(0, 7) > 2           # crosses up-switch


def test_topology_fat_tree_single_node():
    topo = Topology(1)
    assert topo.diameter() == 0


def test_topology_ring():
    topo = Topology(6, shape="ring")
    assert topo.hops(0, 3) == 3
    assert topo.hops(0, 5) == 1


def test_topology_validation():
    with pytest.raises(ConfigurationError):
        Topology(0)
    with pytest.raises(ConfigurationError):
        Topology(4, shape="hypercube")  # type: ignore[arg-type]
    with pytest.raises(ConfigurationError):
        Topology(1, shape="hypercube")  # type: ignore[arg-type]
    topo = Topology(4)
    with pytest.raises(ConfigurationError):
        topo.hops(0, 9)


def test_topology_32_nodes_diameter_reasonable():
    topo = Topology(32, shape="fat-tree", radix=4)
    assert 2 <= topo.diameter() <= 8


def _reference_hops(n, shape, radix):
    """Oracle: BFS over the explicit switch graph, ``n{i}`` nodes, ``L{j}``
    leaf switches and ``U{lvl}.{j}`` up-switches; returns dist[a][b]."""
    adj = {f"n{i}": set() for i in range(n)}

    def link(u, v):
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)

    if n > 1 and shape == "star":
        for i in range(n):
            link(f"n{i}", "sw0")
    elif n > 1 and shape == "ring":
        for i in range(n):
            link(f"n{i}", f"n{(i + 1) % n}")
    elif n > 1:
        level = [f"L{j}" for j in range(math.ceil(n / radix))]
        for i in range(n):
            link(f"n{i}", level[i // radix])
        lvl = 0
        while len(level) > 1:
            lvl += 1
            parents = [f"U{lvl}.{j}" for j in range(math.ceil(len(level) / radix))]
            for j, sw in enumerate(level):
                link(sw, parents[j // radix])
            level = parents
    dist = []
    for a in range(n):
        seen, todo = {f"n{a}": 0}, deque([f"n{a}"])
        while todo:
            u = todo.popleft()
            for v in adj[u]:
                if v not in seen:
                    seen[v] = seen[u] + 1
                    todo.append(v)
        dist.append([seen[f"n{b}"] for b in range(n)])
    return dist


@pytest.mark.parametrize("radix", [2, 3, 4, 5])
@pytest.mark.parametrize("shape", ["fat-tree", "star", "ring"])
def test_topology_hops_equal_switch_graph_shortest_paths(shape, radix):
    refs = {}
    for n in [*range(1, 41), 64, 256]:
        refs[n] = ref = _reference_hops(n, shape, radix)
        topo = Topology(n, shape=shape, radix=radix)
        assert [[topo.hops(a, b) for b in range(n)] for a in range(n)] == ref, n
        assert topo.diameter() == max(map(max, ref))
    for nranks in range(1, 41):
        for ppn in (1, 2, 4):
            ranks = RankTopology(nranks, procs_per_node=ppn,
                                 shape=shape, radix=radix)
            ref = refs[ranks.nnodes]
            assert ranks.nnodes == -(-nranks // ppn)
            assert all(ranks.hops(a, b) == ref[a // ppn][b // ppn]
                       for a in range(nranks) for b in range(nranks)), (nranks, ppn)


# -- network -----------------------------------------------------------------

def simple_net(nnodes=2, spec=None):
    eng = Engine()
    net = Network(eng, nnodes, spec=spec or LinkSpec("t", bandwidth=100.0,
                                                     latency=1.0))
    return eng, net


def test_delivery_time_and_callback():
    eng, net = simple_net()
    got = []
    net.attach(1, lambda m: got.append((eng.now, m)))
    arrival = net.send(Message(src=0, dst=1, size=200))
    assert arrival == pytest.approx(3.0)  # 1.0 latency + 200/100
    eng.run()
    assert len(got) == 1
    assert got[0][0] == pytest.approx(3.0)
    assert net.bytes_delivered == 200


def test_sender_serialization():
    """Back-to-back sends queue behind each other at the sender's NIC."""
    eng, net = simple_net()
    got = []
    net.attach(1, lambda m: got.append(eng.now))
    net.send(Message(src=0, dst=1, size=100))  # serializes 1s
    net.send(Message(src=0, dst=1, size=100))  # starts at t=1
    eng.run()
    assert got == [pytest.approx(2.0), pytest.approx(3.0)]


def test_incast_serializes_at_the_receiver():
    """Two senders targeting one node queue on its receive link --
    the all-to-all incast effect."""
    eng, net = simple_net(3)
    got = []
    net.attach(2, lambda m: got.append(eng.now))
    net.send(Message(src=0, dst=2, size=100))
    net.send(Message(src=1, dst=2, size=100))
    eng.run()
    assert got == [pytest.approx(2.0), pytest.approx(3.0)]


def test_distinct_senders_distinct_receivers_fully_parallel():
    eng, net = simple_net(4)
    got = []
    net.attach(2, lambda m: got.append(eng.now))
    net.attach(3, lambda m: got.append(eng.now))
    net.send(Message(src=0, dst=2, size=100))
    net.send(Message(src=1, dst=3, size=100))
    eng.run()
    assert got == [pytest.approx(2.0), pytest.approx(2.0)]


def test_loopback_has_no_latency():
    eng, net = simple_net()
    got = []
    net.attach(0, lambda m: got.append(eng.now))
    net.send(Message(src=0, dst=0, size=100))
    eng.run()
    assert got == [pytest.approx(1.0)]  # bandwidth term only


def test_send_to_unattached_destination_is_dropped():
    """Sends to a node with no NIC (failed / never attached) vanish at
    delivery time -- failure-injection semantics."""
    eng, net = simple_net()
    net.send(Message(src=0, dst=1, size=10))
    eng.run()
    assert net.messages_delivered == 0


def test_detach_drops_in_flight():
    eng, net = simple_net()
    got = []
    net.attach(1, lambda m: got.append(m))
    net.send(Message(src=0, dst=1, size=100))
    net.detach(1)
    eng.run()
    assert got == []
    assert net.messages_delivered == 0


def test_bad_node_numbers():
    eng, net = simple_net()
    with pytest.raises(NetworkError):
        net.attach(5, lambda m: None)
    with pytest.raises(NetworkError):
        net.send(Message(src=9, dst=0, size=1))
    with pytest.raises(NetworkError):
        Network(eng, 0)

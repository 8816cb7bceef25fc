"""Property tests for the checkpoint transport's byte ledger.

The drain queue's conservation law -- ``bytes enqueued == bytes drained
+ bytes in flight`` -- must hold at *every* point in a run, not just at
the end.  Two layers of evidence:

- a pure random walk over :class:`DrainQueue` (hypothesis drives the
  enqueue/drain interleavings, including attempts to over-drain, which
  must be refused without corrupting the ledger);
- a simulated run of the real framed transports with random piece
  sizes and submission times, with an engine event hook re-checking
  every queue and the aggregate ledger after every dispatched event
  and at random sample instants inside frame trains, plus the per-rank
  FIFO completion order.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint.transport import (DrainQueue, TransportSpec,
                                        make_transport, normalize_spec)
from repro.errors import CheckpointError
from repro.net import Network
from repro.sim import PRIORITY_LATE, Engine
from repro.storage import Disk, DisklessSink
from repro.units import KiB, MiB


# -- pure DrainQueue walks ----------------------------------------------------------


@given(st.lists(st.tuples(st.booleans(),
                          st.integers(min_value=0, max_value=10 * MiB)),
                min_size=1, max_size=200))
@settings(max_examples=100, deadline=None)
def test_drain_queue_conserves_bytes_at_every_step(ops):
    q = DrainQueue()
    for is_enqueue, nbytes in ops:
        if is_enqueue:
            q.enqueue(nbytes)
        else:
            q.drain(min(nbytes, q.in_flight_bytes))
        assert q.enqueued_bytes == q.drained_bytes + q.in_flight_bytes
        assert q.consistent
        assert 0 <= q.in_flight_bytes <= q.peak_bytes <= q.enqueued_bytes


@given(st.integers(min_value=0, max_value=MiB),
       st.integers(min_value=1, max_value=MiB))
@settings(max_examples=100, deadline=None)
def test_drain_queue_refuses_overdrain_and_stays_consistent(filled, extra):
    q = DrainQueue()
    q.enqueue(filled)
    with pytest.raises(CheckpointError):
        q.drain(filled + extra)
    assert q.consistent
    assert q.in_flight_bytes == filled
    with pytest.raises(CheckpointError):
        q.enqueue(-1)
    with pytest.raises(CheckpointError):
        q.drain(-1)
    assert q.consistent


# -- the real transports under random traffic ---------------------------------------


def _build(mode: str, nranks: int, frame_bytes: int):
    engine = Engine()
    network = Network(engine, nranks)
    spec = TransportSpec(mode=mode, frame_bytes=frame_bytes,
                         max_queue_bytes=4 * MiB)
    if mode == "diskless":
        sinks = {r: DisklessSink(engine, capacity=256 * MiB,
                                 name=f"buddy.r{r}")
                 for r in range(nranks)}
    else:
        sinks = {r: Disk(engine, name=f"ckpt.r{r}") for r in range(nranks)}
    transport = make_transport(spec, engine=engine, network=network,
                               sinks=sinks, nranks=nranks)
    return engine, transport


@given(st.sampled_from(["estimate", "network", "diskless"]),
       st.lists(st.tuples(
           st.integers(min_value=0, max_value=2),       # rank
           st.floats(min_value=0.0, max_value=5.0),     # submit time
           st.integers(min_value=0, max_value=640 * KiB)),  # piece size
           min_size=1, max_size=12),
       st.lists(st.floats(min_value=0.0, max_value=5.5),    # sample times
                max_size=16))
@settings(max_examples=25, deadline=None)
def test_transport_ledger_holds_at_every_event(mode, pieces, samples):
    nranks = 3
    engine, transport = _build(mode, nranks, frame_bytes=64 * KiB)
    done: dict[int, list[int]] = {r: [] for r in range(nranks)}
    submitted: dict[int, list[int]] = {r: [] for r in range(nranks)}

    def on_durable(rank, seq, done_at):
        assert done_at is not None and done_at >= 0.0
        done[rank].append(seq)

    last = [engine.position]

    def check(_event):
        # stream entries run at their own keys: time never runs backwards
        assert engine.position >= last[0]
        last[0] = engine.position
        for q in transport.queues.values():
            assert q.consistent
        snap = transport.snapshot()
        assert snap.bytes_submitted == snap.bytes_drained + snap.in_flight_bytes
        assert snap.in_flight_bytes >= 0

    def submit(rank, seq, nbytes):
        submitted[rank].append(seq)
        stall = transport.submit(rank, seq, nbytes, on_durable)
        assert stall >= 0.0

    for seq, (rank, at, nbytes) in enumerate(sorted(pieces, key=lambda p: p[1])):
        engine.schedule_at(at, submit, rank, seq, nbytes)
    # the hook fires once per engine event, and one event runs a whole
    # stretch of frames: samplers read the ledger inside those stretches
    for at in samples:
        engine.schedule_at(at, check, None, priority=PRIORITY_LATE)
    engine.add_event_hook(check)
    engine.run()

    # everything submitted fully drained, in submission (FIFO) order
    assert done == submitted
    snap = transport.snapshot()
    assert snap.in_flight_bytes == 0
    assert snap.bytes_submitted == snap.bytes_drained == \
        sum(p[2] for p in pieces)
    assert snap.pieces == len(pieces)
    assert snap.peak_queue_bytes <= snap.bytes_submitted
    if snap.bytes_drained and snap.measured:
        assert snap.busy_time > 0.0
        assert snap.achieved_bandwidth > 0.0


def test_spec_validation_rejects_nonsense():
    with pytest.raises(CheckpointError):
        TransportSpec(mode="carrier-pigeon")
    with pytest.raises(CheckpointError):
        TransportSpec(frame_bytes=0)
    with pytest.raises(CheckpointError):
        TransportSpec(max_queue_bytes=-1)
    with pytest.raises(CheckpointError):
        normalize_spec(42)
    assert normalize_spec(None).mode == "estimate"
    assert normalize_spec("diskless").mode == "diskless"
    spec = TransportSpec(mode="network")
    assert normalize_spec(spec) is spec


# -- lazy settlement is exact -------------------------------------------------------


def test_run_until_settles_every_frame_durable_by_then():
    # one rank, one 8 MiB piece in 1 MiB frames: six frames are on disk
    # by t = 0.05.  The run ends at ``until``, after the last dispatched
    # event, and the ledger must reflect the whole elapsed interval.
    engine, transport = _build("network", 1, frame_bytes=MiB)
    transport.submit(0, 0, 8 * MiB, lambda *a: None)
    engine.run(until=0.05)
    assert transport.snapshot().bytes_drained == 6 * MiB


def test_frame_durable_at_a_readers_instant_follows_event_order():
    # exactly representable times: 1 MiB frames cross a zero-latency
    # 1 GiB/s fabric in 2**-10 s and take 2**-8 s on a seek-free
    # 256 MiB/s disk.  Frame 1 is durable at 5/1024 s, frame 2 (of
    # four, so intermediate) at 9/1024 s; it arrives at 2/1024 s.
    from repro.net.models import LinkSpec
    from repro.sim import PRIORITY_TIMER
    from repro.storage import DiskSpec

    engine = Engine()
    network = Network(engine, 1,
                      spec=LinkSpec("pow2", bandwidth=1 << 30, latency=0.0))
    disk = Disk(engine, DiskSpec("pow2", bandwidth=1 << 28, seek_latency=0.0))
    transport = make_transport(TransportSpec(mode="network", frame_bytes=MiB),
                               engine=engine, network=network,
                               sinks={0: disk}, nranks=1)
    t = 9 / 1024
    seen = {}

    def read(name):
        seen[name] = transport.snapshot().bytes_drained

    engine.schedule_at(t, read, "timer", priority=PRIORITY_TIMER)
    engine.schedule_at(t, read, "scheduled before arrival")
    transport.submit(0, 0, 4 * MiB, lambda *a: None)
    engine.schedule_at(3 / 1024, engine.schedule_at, t, read,
                       "scheduled after arrival")
    engine.run()
    assert seen == {"timer": MiB, "scheduled before arrival": MiB,
                    "scheduled after arrival": 2 * MiB}


def test_obs_counters_and_series_match_the_transport_stats():
    from repro.cluster.experiment import paper_config, run_experiment
    from repro.obs import MetricsRegistry, Observability

    obs = Observability(metrics=MetricsRegistry())
    config = paper_config("sage-100MB", nranks=4, timeslice=1.0,
                          run_duration=20.0, ckpt_transport="network")
    stats = run_experiment(config, obs=obs).transport_stats
    m = obs.metrics
    assert stats.frames > stats.pieces > 0
    assert m.counter("checkpoint.transport.frames").value == stats.frames
    assert (m.counter("checkpoint.transport.bytes_drained").value
            == stats.bytes_drained)
    series = m.series("checkpoint.transport.drained_bytes")
    assert series.count == stats.frames
    assert series.total == stats.bytes_drained
    # recorded in time order: no sample fell outside the windows
    windows = series.windows()
    assert sum(w["count"] for w in windows) == stats.frames
    assert sum(w["sum"] for w in windows) == stats.bytes_drained


def test_settled_frames_reach_the_series_in_time_order():
    # rank 0's disk is slow (1.5 s a frame), rank 1's faster (0.6 s).
    # Rank 1's piece completes at 1.8 s and settles both ranks at once:
    # rank 0's frame at 1.5 s must not be recorded before rank 1's at
    # 0.6 s, or the series would drop the older sample.
    from repro.obs import MetricsRegistry, Observability
    from repro.storage import DiskSpec

    obs = Observability(metrics=MetricsRegistry())
    engine = Engine(obs=obs)
    network = Network(engine, 2)
    sinks = {r: Disk(engine, DiskSpec(f"d{r}", bandwidth=MiB / secs,
                                      seek_latency=0.0), name=f"ckpt.r{r}")
             for r, secs in ((0, 1.5), (1, 0.6))}
    transport = make_transport(TransportSpec(mode="network", frame_bytes=MiB),
                               engine=engine, network=network, sinks=sinks,
                               nranks=2)
    for rank in (0, 1):
        transport.submit(rank, 0, 3 * MiB, lambda *a: None)
    engine.run()
    series = obs.metrics.series("checkpoint.transport.drained_bytes")
    assert series.count == transport.snapshot().frames == 6
    assert sum(w["count"] for w in series.windows()) == 6


# -- the frame stream merges into the global event order exactly -------------------


def _pow2(nranks: int = 2):
    """1 MiB frames on a zero-latency 1 GiB/s fabric (2**-10 s a frame)
    into seek-free 256 MiB/s disks: every instant is exact."""
    from repro.net.models import LinkSpec
    from repro.storage import DiskSpec

    engine = Engine()
    network = Network(engine, nranks,
                      spec=LinkSpec("pow2", bandwidth=1 << 30, latency=0.0))
    sinks = {r: Disk(engine, DiskSpec("pow2", bandwidth=1 << 28,
                                      seek_latency=0.0), name=f"ckpt.r{r}")
             for r in range(nranks)}
    transport = make_transport(TransportSpec(mode="network", frame_bytes=MiB),
                               engine=engine, network=network, sinks=sinks,
                               nranks=nranks)
    return engine, network, transport


@pytest.mark.parametrize("scheduled, arrival, contended", [
    ("before submit", 2 / 1024, 0),     # wins the tie: frame 2 waits
    ("after submit", 3 / 1024, 1),      # loses it: waits behind frame 2
])
def test_app_send_tied_with_a_frame_inject_follows_event_order(
        scheduled, arrival, contended):
    # frame 2 of rank 0's piece injects at exactly 1/1024 s; an
    # application send on the same transmit link at the same instant
    # goes first iff its event was scheduled before the inject's was
    from repro.net import Message

    engine, network, transport = _pow2()
    msg = Message(src=0, dst=1, size=MiB)
    t = 1 / 1024
    if scheduled == "before submit":
        engine.schedule_at(t, network.send, msg)
    transport.submit(0, 0, 4 * MiB, lambda *a: None)
    if scheduled == "after submit":
        engine.schedule_at(0.5 / 1024, engine.schedule_at, t,
                           network.send, msg)
    engine.run()
    assert msg.send_time == t
    assert msg.arrival_time == arrival
    assert network.ckpt_contended_messages == contended
    assert transport.snapshot().bytes_drained == 4 * MiB


def _traffic(engine, network, transport, durable):
    """Two ranks' pieces interleaved with application sends both ways."""
    from repro.net import Message

    for seq, (rank, at, nbytes) in enumerate((
            (0, 0.0, 3 * MiB + 5), (1, 0.0004, 2 * MiB),
            (0, 0.0011, MiB // 2), (1, 0.0019, 3 * MiB))):
        engine.schedule_at(at, transport.submit, rank, seq, nbytes,
                           lambda *a: durable.append(a))
    for k in range(12):
        src = k % 2
        engine.schedule_at(k * 0.00037, network.send,
                           Message(src=src, dst=1 - src, size=300_000 + k))


def _state(engine, network, transport):
    return (engine.now, transport.snapshot(), network.messages_delivered,
            network.ckpt_contention_delay, network.storage_ports[0].frames)


def test_run_until_in_steps_matches_one_uninterrupted_run():
    steps = [k / 3000 for k in range(1, 40)]
    engine, network, transport = _pow2()
    whole, whole_durable = [], []
    _traffic(engine, network, transport, whole_durable)
    for t in steps:
        engine.schedule_at(t, lambda: whole.append(
            _state(engine, network, transport)), priority=PRIORITY_LATE)
    engine.run()

    engine, network, transport = _pow2()
    stepped, stepped_durable = [], []
    _traffic(engine, network, transport, stepped_durable)
    for t in steps:
        engine.run(until=t)
        stepped.append(_state(engine, network, transport))
    engine.run()
    assert stepped == whole
    assert stepped_durable == whole_durable
    # the steps cut through frame trains, not just between pieces
    assert any(0 < s[1].in_flight_bytes for s in stepped)


def test_stop_mid_train_then_resume_matches_the_uninterrupted_run():
    t_stop = 0.0027                     # inside rank 1's second piece
    runs = []
    for stop in (False, True):
        engine, network, transport = _pow2()
        durable, seen = [], []
        _traffic(engine, network, transport, durable)

        def read(stop=stop, engine=engine, network=network,
                 transport=transport, seen=seen):
            seen.append(_state(engine, network, transport))
            if stop:
                engine.stop()

        engine.schedule_at(t_stop, read, priority=PRIORITY_LATE)
        engine.run()
        if stop:
            assert engine.stopped and engine.now == t_stop
            assert _state(engine, network, transport) == seen[0]
            engine.run()
        assert seen[0][1].in_flight_bytes > 0
        runs.append((seen, durable, _state(engine, network, transport)))
    assert runs[0] == runs[1]


# -- framed paths no golden reaches, pinned exactly ---------------------------------


def _pinned_run(mode: str):
    """``_traffic`` through 2-rank sinks no golden uses: striped arrays
    (each 1 MiB frame deals four 256 KiB chunks) with a media failure
    that fails piece 0 mid-train, or diskless buddies two hops away."""
    import hashlib

    from repro.storage import StorageArray

    engine = Engine()
    network = Network(engine, 2)
    if mode == "network":
        sinks = {r: StorageArray(engine, 2, stripe_unit=256 * KiB,
                                 name=f"a{r}") for r in range(2)}
        engine.schedule_at(0.0009, sinks[0].disks[1].fail_next_writes, 1)
    else:
        sinks = {r: DisklessSink(engine, name=f"buddy.r{r}")
                 for r in range(2)}
    transport = make_transport(TransportSpec(mode=mode), engine=engine,
                               network=network, sinks=sinks, nranks=2)
    durable, keys = [], []
    # the key of every dispatched engine event: a stream entry drawing
    # its seq out of order moves the key of the pump armed at it
    engine.add_event_hook(lambda ev: keys.append((ev.time, ev.seq)))
    _traffic(engine, network, transport, durable)
    engine.run()
    if mode == "network":
        port = network.storage_ports[0]
        fabric = (port.rx_free, port.bytes_received, port.frames,
                  port.busy_time)
        disks = [(d.ops, d.busy_time, d._free_at)
                 for r in range(2) for d in sinks[r].disks]
    else:
        fabric = (network._rx_free, network._ckpt_rx_until)
        disks = [(s.ops, s._free_at, s.bytes_held) for s in sinks.values()]
    return {
        "durable": repr(durable),
        "snapshot": repr(transport.snapshot()),
        "tx": repr((network._tx_free, network._ckpt_tx_until)),
        "fabric": repr(fabric),
        "disks": repr(disks),
        "events": (len(keys),
                   hashlib.sha256(repr(keys).encode()).hexdigest()),
    }


_PINNED = {
    "network": {
        "durable": "[(1, 1, 0.024148722222222224), (0, 0, None), "
                   "(0, 2, 0.04418137601227231), "
                   "(1, 3, 0.057036222222222224)]",
        "snapshot": "TransportStats(mode='network', pieces=4, "
                    "failed_pieces=1, frames=10, bytes_submitted=8912901, "
                    "bytes_drained=8912901, in_flight_bytes=0, "
                    "peak_queue_bytes=5242880, stalls=0, stall_time=0.0, "
                    "busy_time=0.10052970573605433, "
                    "achieved_bandwidth=88659376.19872537, "
                    "contention_delay=0.011302914640638565, "
                    "contended_messages=11, samples=[])",
        "tx": "([0.005796274609035916, 0.007832942335340713], "
              "[0.005796274609035916, 0.007832942335340713])",
        "fabric": "(0.009445949742635093, 8912901, 10, "
                  "0.009444449742635091)",
        "disks": "[(8, 0.0430687649011612, 0.04418137601227231), "
                 "(7, 0.03836875, 0.03948136111111111), "
                 "(10, 0.0548125, 0.057036222222222224), "
                 "(10, 0.0548125, 0.057036222222222224)]",
        "events": (43, "843d0692efd1aff2a2ac901ddef14343"
                       "d5d264a8c7f874d89ced8637922bdf7c"),
    },
    "diskless": {
        "durable": "[(1, 1, 0.0037179905883789064), "
                   "(0, 0, 0.005242421381786797), "
                   "(0, 2, 0.006042115234035916), "
                   "(1, 3, 0.008322923585340713)]",
        "snapshot": "TransportStats(mode='diskless', pieces=4, "
                    "failed_pieces=0, frames=10, bytes_submitted=8912901, "
                    "bytes_drained=8912901, in_flight_bytes=0, "
                    "peak_queue_bytes=5242880, stalls=0, stall_time=0.0, "
                    "busy_time=0.013531331977674699, "
                    "achieved_bandwidth=658686152.6053287, "
                    "contention_delay=0.011302914640638565, "
                    "contended_messages=14, samples=[])",
        "tx": "([0.005796274609035916, 0.007832942335340713], "
              "[0.005796274609035916, 0.007832942335340713])",
        "fabric": "([0.007834642335340713, 0.005797974609035916], "
                  "[0.007834642335340713, 0.005797974609035916])",
        "disks": "[(5, 0.006042115234035916, 3670021), "
                 "(5, 0.008322923585340713, 5242880)]",
        "events": (41, "ba9974b3132433d3da5eb3f350d49def"
                       "710cb68eff7c2304ee98d8ab92ba8ce3"),
    },
}


@pytest.mark.parametrize("mode", ["network", "diskless"])
def test_framed_paths_without_a_golden_are_pinned(mode):
    assert _pinned_run(mode) == _PINNED[mode]

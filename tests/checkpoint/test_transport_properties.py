"""Property tests for the checkpoint transport's byte ledger.

The drain queue's conservation law -- ``bytes enqueued == bytes drained
+ bytes in flight`` -- must hold at *every* point in a run, not just at
the end.  Two layers of evidence:

- a pure random walk over :class:`DrainQueue` (hypothesis drives the
  enqueue/drain interleavings, including attempts to over-drain, which
  must be refused without corrupting the ledger);
- a simulated run of the real framed transports with random piece
  sizes and submission times, with an engine event hook re-checking
  every queue and the aggregate ledger after every dispatched event,
  plus the per-rank FIFO completion order.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint.transport import (DrainQueue, TransportSpec,
                                        make_transport, normalize_spec)
from repro.errors import CheckpointError
from repro.net import Network
from repro.sim import Engine
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
           min_size=1, max_size=12))
@settings(max_examples=25, deadline=None)
def test_transport_ledger_holds_at_every_event(mode, pieces):
    nranks = 3
    engine, transport = _build(mode, nranks, frame_bytes=64 * KiB)
    done: dict[int, list[int]] = {r: [] for r in range(nranks)}
    submitted: dict[int, list[int]] = {r: [] for r in range(nranks)}

    def on_durable(rank, seq, done_at):
        assert done_at is not None and done_at >= 0.0
        done[rank].append(seq)

    def check(_event):
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
        TransportSpec(port_hops=-1)
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

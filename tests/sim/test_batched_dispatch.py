"""Batched same-instant dispatch: ``Engine.schedule_coalesced``
semantics, the wake/delivery batching differential against the
per-item reference engine (``tests/sim/reference.py``), and hypothesis
interleavings.

The contract mirrors the TimerHub's: batching same-sim-time work into
one engine event may never change the simulation -- same delivery
order, same resume order, same virtual times -- only the host event
count.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.cluster.experiment
from repro.cluster.experiment import paper_config, run_experiment
from repro.mpi.communicator import _finish_recv
from repro.net import Message, Network
from repro.obs import MetricsRegistry, Observability, Tracer
from repro.sim import Engine, Future, SimProcess, PRIORITY_LATE
from tests.sim.reference import PerItemEngine, run_reference


# -- schedule_coalesced unit semantics ----------------------------------------

def test_same_instant_calls_share_one_event_in_join_order():
    eng = Engine()
    fired = []
    # fn is compared by identity, so callers hold one stable callable
    # (a fresh bound method like fired.append would never coalesce)
    collect = fired.append
    pending = eng.pending_events()
    ev1 = eng.schedule_coalesced(1.0, collect, "a")
    ev2 = eng.schedule_coalesced(1.0, collect, "b")
    ev3 = eng.schedule_coalesced(1.0, collect, "c")
    assert ev1 is ev2 is ev3
    assert eng.pending_events() == pending + 1
    eng.run()
    assert fired == ["a", "b", "c"]


def test_plain_event_at_same_instant_seals_the_batch():
    """An interloping ``schedule_at`` closes the open batch so later
    joins sort *after* it -- exactly where per-item events would."""
    eng = Engine()
    fired = []
    collect = fired.append
    eng.schedule_coalesced(1.0, collect, "a")
    eng.schedule_at(1.0, collect, "plain")
    eng.schedule_coalesced(1.0, collect, "b")
    assert eng.pending_events() == 3   # batch, interloper, fresh batch
    eng.run()
    assert fired == ["a", "plain", "b"]


def test_distinct_fn_time_or_priority_do_not_coalesce():
    eng = Engine()
    fired = []
    other = []
    collect, collect_other = fired.append, other.append
    eva = eng.schedule_coalesced(1.0, collect, "a")
    evb = eng.schedule_coalesced(2.0, collect, "b")             # time
    evc = eng.schedule_coalesced(2.0, collect_other, "c")       # fn
    evd = eng.schedule_coalesced(2.0, collect_other, "d",
                                 priority=PRIORITY_LATE)        # priority
    assert len({id(e) for e in (eva, evb, evc, evd)}) == 4
    eng.run()
    assert fired == ["a", "b"] and other == ["c", "d"]


def test_cancelled_batch_is_not_joined():
    """Cancelling the shared event drops every joined item; a later
    call opens a fresh batch instead of boarding the dead one."""
    eng = Engine()
    fired = []
    collect = fired.append
    ev = eng.schedule_coalesced(1.0, collect, "dropped")
    eng.schedule_coalesced(1.0, collect, "also-dropped")
    ev.cancel()
    ev2 = eng.schedule_coalesced(1.0, collect, "live")
    assert ev2 is not ev
    eng.run()
    assert fired == ["live"]


def test_batch_fired_from_inside_a_batch_opens_a_fresh_event():
    """A batch item scheduling more same-instant coalesced work must get
    a new event (the firing batch's item list is already being drained)."""
    eng = Engine()
    fired = []

    def chain(tag):
        fired.append(tag)
        if tag == "first":
            eng.schedule_coalesced(eng.now, chain, "second")
            eng.schedule_coalesced(eng.now, chain, "third")

    eng.schedule_coalesced(1.0, chain, "first")
    eng.run()
    assert fired == ["first", "second", "third"]
    assert eng.now == 1.0


# -- hypothesis: interleavings are batching-invariant -------------------------

@given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=3.0,
                                    allow_nan=False),
                          st.integers(min_value=1, max_value=3),
                          st.integers(min_value=0, max_value=65536)),
                min_size=1, max_size=25))
@settings(max_examples=60, deadline=None)
def test_delivery_order_identical_with_and_without_batching(sends):
    """Random (send-time, dst, size) interleavings: the coalesced
    delivery path produces the exact delivered sequence -- virtual
    times included -- of one event per message."""

    def run(engine_cls):
        eng = engine_cls()
        net = Network(eng, nnodes=4)
        log = []
        for node in range(4):
            net.attach(node, lambda m, n=node:
                       log.append((eng.now, n, m.src, m.tag, m.size)))
        for tag, (t, dst, size) in enumerate(sends):
            # tag doubles as a unique identity so the comparison does
            # not depend on the global Message mid counter
            eng.schedule_at(t, net.send, Message(src=0, dst=dst,
                                                 size=size, tag=tag))
        eng.run()
        return log

    assert run(Engine) == run(PerItemEngine)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_wake_order_identical_with_and_without_batching(data):
    """Random future/waiter topologies with colliding resolve times:
    batched resumes happen at the same virtual times, in the same
    order, with the same values as per-process wake events."""
    nfuts = data.draw(st.integers(min_value=1, max_value=5), label="nfuts")
    nprocs = data.draw(st.integers(min_value=1, max_value=4), label="nprocs")
    # each process waits on an arbitrary sequence of future indices
    waits = [data.draw(st.lists(st.integers(min_value=0, max_value=nfuts - 1),
                                min_size=1, max_size=4), label=f"waits{p}")
             for p in range(nprocs)]
    # few distinct times so same-instant resolution collisions are common
    times = [data.draw(st.sampled_from([0.0, 1.0, 1.0, 2.0]),
                       label=f"t{f}") for f in range(nfuts)]

    def run(engine_cls):
        eng = engine_cls()
        futs = [Future(eng, label=f"f{i}") for i in range(nfuts)]
        log = []

        def body(name, seq):
            for idx in seq:
                value = yield futs[idx]
                log.append((eng.now, name, idx, value))

        for p, seq in enumerate(waits):
            SimProcess(eng, body(f"w{p}", seq), name=f"w{p}")
        for f, fut in enumerate(futs):
            eng.schedule_at(times[f], fut.resolve, f * 10)
        eng.run()
        return log

    assert run(Engine) == run(PerItemEngine)


# -- differential: full workloads, batched vs per-item dispatch ---------------

@pytest.mark.parametrize("name", ["sage-50MB", "sweep3d"])
def test_experiment_streams_identical_across_dispatch_paths(name,
                                                            monkeypatch):
    cfg = paper_config(name, nranks=8, timeslice=1.0, run_duration=10.0)
    new = run_experiment(cfg)
    ref = run_reference(monkeypatch, cfg)
    assert new.final_time == ref.final_time
    assert new.iterations == ref.iterations
    assert new.iteration_starts == ref.iteration_starts
    for rank in range(8):
        assert new.logs[rank].records == ref.logs[rank].records


def test_traced_streams_identical_across_dispatch_paths(monkeypatch):
    cfg = paper_config("sage-50MB", nranks=8, timeslice=1.0,
                       run_duration=12.0, ckpt_transport="estimate")
    new_obs = Observability(tracer=Tracer(wall_clock=None))
    ref_obs = Observability(tracer=Tracer(wall_clock=None))
    run_experiment(cfg, obs=new_obs)
    run_reference(monkeypatch, cfg, obs=ref_obs)
    assert new_obs.tracer.events == ref_obs.tracer.events


def test_reference_engine_dispatches_per_item(monkeypatch):
    """The reference really is per-item: same records, strictly more
    engine events.  Without this guard a refactor could leave the
    differentials above comparing the batched path with itself."""
    cfg = paper_config("sweep3d", nranks=8, timeslice=1.0, run_duration=10.0)
    new_obs = Observability(metrics=MetricsRegistry())
    ref_obs = Observability(metrics=MetricsRegistry())
    new = run_experiment(cfg, obs=new_obs)
    ref = run_reference(monkeypatch, cfg, obs=ref_obs)
    for rank in range(8):
        assert new.logs[rank].records == ref.logs[rank].records
    batched = new_obs.metrics.gauge("sim.engine.dispatched").value
    per_item = ref_obs.metrics.gauge("sim.engine.dispatched").value
    assert per_item > batched > 0


def _count_copy_completions(monkeypatch, engine_cls, config):
    """Run ``config`` on ``engine_cls``; returns the result and the
    ``(events, items)`` of its bounce-buffer copy completions."""
    counts = [0, 0]

    def hook(ev):
        if ev.fn is _finish_recv:                      # one per item
            counts[0] += 1
            counts[1] += 1
        elif ev.args and ev.args[0] is _finish_recv:   # a shared batch
            counts[0] += 1
            counts[1] += len(ev.args[1])

    class Counting(engine_cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.add_event_hook(hook)

    with monkeypatch.context() as patch:
        patch.setattr(repro.cluster.experiment, "Engine", Counting)
        result = repro.cluster.experiment.run_experiment(config)
    return result, tuple(counts)


def test_receive_completions_really_coalesce(monkeypatch):
    """Intercepted receives complete through coalesced ``_finish_recv``
    batches: fewer events than completions on the production engine,
    one event per completion on the per-item reference, and the same
    records.  Without this guard the differentials above could compare
    a completion path that never coalesces with itself."""
    cfg = paper_config("sage-50MB", nranks=8, timeslice=1.0,
                       run_duration=10.0)
    assert cfg.intercept_receives
    new, (new_events, new_items) = _count_copy_completions(
        monkeypatch, Engine, cfg)
    ref, (ref_events, ref_items) = _count_copy_completions(
        monkeypatch, PerItemEngine, cfg)
    assert new_items == ref_items > 0
    assert ref_events == ref_items
    assert new_events < new_items
    for rank in range(8):
        assert new.logs[rank].records == ref.logs[rank].records

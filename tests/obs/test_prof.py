"""Engine profiler: classification, section accounting, and the pinned
attribution contract (event counts are deterministic; wall times are
host measurements and are never compared)."""

import pytest

from repro.cluster.experiment import paper_config, run_experiment
from repro.errors import ObservabilityError
from repro.mpi.communicator import _finish_recv
from repro.net import NIC
from repro.obs import EngineProfiler, Observability, load_profile, \
    render_profile
from repro.obs.prof import _classify_future, _rank_from_name


class FakeClock:
    """A settable clock so unit tests control every wall gap."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class FakeEngine:
    def __init__(self):
        self.hooks = []

    def add_event_hook(self, hook):
        self.hooks.append(hook)


class FakeEvent:
    def __init__(self, fn, args=()):
        self.fn = fn
        self.args = args


def _plain_event_fn():
    pass


# -- unit: attribution mechanics ----------------------------------------------

def test_setup_gap_then_event_attribution():
    clock = FakeClock()
    prof = EngineProfiler(clock=clock)
    engine = FakeEngine()
    prof.attach(engine)
    (hook,) = engine.hooks
    ev = FakeEvent(_plain_event_fn)
    clock.t = 3.0
    hook(ev)          # construction -> first event is host.setup
    clock.t = 3.5
    hook(ev)          # 0.5s -> the event's own bucket
    profile = prof.profile()
    cats = {(c["subsystem"], c["kind"]): c for c in profile["categories"]}
    assert cats[("host", "setup")]["self_s"] == pytest.approx(3.0)
    # module-fallback classification: tests.* is not a repro subsystem
    assert cats[("host", "_plain_event_fn")]["self_s"] == pytest.approx(0.5)
    assert profile["events"] == 2


def test_section_subtracts_from_enclosing_event_self_time():
    clock = FakeClock()
    prof = EngineProfiler(clock=clock)
    engine = FakeEngine()
    prof.attach(engine)
    (hook,) = engine.hooks
    ev = FakeEvent(_plain_event_fn)
    hook(ev)                      # consume the setup gap (0s)
    clock.t = 1.0
    with prof.section("app.region_alloc", rank=3):
        clock.t = 1.4             # 0.4s of section work
    clock.t = 2.0
    hook(ev)                      # event ran 0..2s, 0.4 of it sectioned
    profile = prof.profile()
    cats = {(c["subsystem"], c["kind"]): c for c in profile["categories"]}
    alloc = cats[("app", "region_alloc")]
    event = cats[("host", "_plain_event_fn")]
    assert alloc["self_s"] == pytest.approx(0.4)
    assert alloc["ranks"] == "r0-63"
    assert event["self_s"] == pytest.approx(1.6)   # 2.0 cum - 0.4 inner
    assert event["cum_s"] == pytest.approx(2.0)
    assert profile["sections"] == 1


def test_nested_sections_charge_inner_to_inner_bucket():
    clock = FakeClock()
    prof = EngineProfiler(clock=clock)
    engine = FakeEngine()
    prof.attach(engine)
    (hook,) = engine.hooks
    hook(FakeEvent(_plain_event_fn))
    with prof.section("app.outer"):
        clock.t = 1.0
        with prof.section("app.inner"):
            clock.t = 1.3
        clock.t = 2.0
    clock.t = 2.0
    hook(FakeEvent(_plain_event_fn))
    cats = {(c["subsystem"], c["kind"]): c for c in prof.profile()["categories"]}
    assert cats[("app", "inner")]["self_s"] == pytest.approx(0.3)
    outer = cats[("app", "outer")]
    assert outer["cum_s"] == pytest.approx(2.0)
    assert outer["self_s"] == pytest.approx(1.7)


def test_rank_group_labels():
    prof = EngineProfiler(rank_group_size=4)
    assert prof._group(None) == "-"
    assert prof._group(0) == "r0-3"
    assert prof._group(3) == "r0-3"
    assert prof._group(4) == "r4-7"
    assert prof._group(130) == "r128-131"
    with pytest.raises(ObservabilityError, match="rank_group_size"):
        EngineProfiler(rank_group_size=0)


def test_rank_from_name_and_future_classification():
    assert _rank_from_name("sage.rank12") == 12
    assert _rank_from_name("ckpt-disk.r7") == 7
    assert _rank_from_name("no-rank-here") is None

    class FakeFuture:
        label = "ckpt-disk.r5.write#3"

    assert _classify_future(FakeFuture()) == ("storage", "sink.write", 5)
    FakeFuture.label = "barrier#2"
    assert _classify_future(FakeFuture()) == ("sim", "future.resolve", None)


# -- artifact loading / rendering ---------------------------------------------

def test_load_profile_rejects_bad_files(tmp_path):
    with pytest.raises(ObservabilityError, match="no profile file"):
        load_profile(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    with pytest.raises(ObservabilityError, match="bad profile"):
        load_profile(bad)
    wrong = tmp_path / "wrong.json"
    wrong.write_text('{"schema": "other/1"}')
    with pytest.raises(ObservabilityError, match="not a repro.obs.profile"):
        load_profile(wrong)


def test_render_profile_sort_keys_and_bad_key():
    prof = EngineProfiler(clock=FakeClock())
    text = render_profile(prof.profile())
    assert "no categories" in text
    with pytest.raises(ObservabilityError, match="unknown sort key"):
        render_profile(prof.profile(), by="bogus")


def test_export_round_trips(tmp_path):
    clock = FakeClock()
    prof = EngineProfiler(clock=clock)
    engine = FakeEngine()
    prof.attach(engine)
    clock.t = 1.0
    engine.hooks[0](FakeEvent(_plain_event_fn))
    out = tmp_path / "p.json"
    exported = prof.export(out)
    loaded = load_profile(out)
    assert loaded["schema"] == "repro.obs.profile/1"
    assert loaded["events"] == exported["events"] == 1
    assert "host" in render_profile(loaded)


# -- integration: real runs ---------------------------------------------------

def _profiled_run(app, nranks, **kw):
    prof = EngineProfiler()
    config = paper_config(app, nranks=nranks, **kw)
    run_experiment(config, obs=Observability(profiler=prof))
    return prof.profile()


def test_pinned_attribution_categories_are_separable():
    """The acceptance contract: timer resumes, message delivery, and
    region allocation show up as their own categories, separable from
    the checkpoint work, on a checkpoint-transport run."""
    prof = EngineProfiler()
    config = paper_config("sage-100MB", nranks=4, timeslice=1.0,
                          run_duration=40.0, ckpt_transport="network")
    run_experiment(config, obs=Observability(profiler=prof))
    profile = prof.profile()
    kinds = {(c["subsystem"], c["kind"]) for c in profile["categories"]}
    # skeleton work, each in its own bucket
    assert ("sim", "process.resume") in kinds
    assert ("sim", "timer.epoch") in kinds
    assert ("net", "message.delivery") in kinds
    assert ("app", "region_alloc") in kinds
    # ...separable from the checkpoint pipeline
    assert ("checkpoint", "transport.frame") in kinds
    assert ("storage", "sink.write") in kinds
    assert ("host", "setup") in kinds
    # ranked categories carry a rank-group label
    resume = next(c for c in profile["categories"]
                  if (c["subsystem"], c["kind"]) == ("sim", "process.resume"))
    assert resume["ranks"] == "r0-63"
    assert profile["coverage"] >= 0.95


def test_event_counts_deterministic_across_same_seed_runs():
    a = _profiled_run("lu", 2, run_duration=8.0, timeslice=0.5)
    b = _profiled_run("lu", 2, run_duration=8.0, timeslice=0.5)
    counts = lambda p: sorted(
        (c["subsystem"], c["kind"], c["ranks"], c["count"])
        for c in p["categories"])
    assert counts(a) == counts(b)
    assert a["events"] == b["events"]
    assert a["sections"] == b["sections"]


def test_fig5_64rank_profile_attributes_95_percent():
    """The issue's headline check: profiling the 64-rank fig5 workload
    attributes >= 95% of the measured wall window."""
    profile = _profiled_run("sage-1000MB", 64, timeslice=1.0,
                            run_duration=40.0)
    # thousands of engine events even with same-instant wakes/deliveries
    # coalesced into shared batch events (which roughly halved the count)
    assert profile["events"] > 5_000
    assert profile["coverage"] >= 0.95
    # the categories' self times are what the coverage is made of
    total_self = sum(c["self_s"] for c in profile["categories"])
    assert total_self == pytest.approx(profile["wall_attributed_s"])


class _CopyCountingProfiler(EngineProfiler):
    """A profiler that also counts the ``_finish_recv`` engine events it
    sees and the copy completions they carry."""

    def __init__(self):
        super().__init__()
        self.copy_events = 0
        self.copies = 0

    def _on_event(self, ev):
        if ev.args and ev.args[0] is _finish_recv:
            self.copy_events += 1
            self.copies += len(ev.args[1])
        super()._on_event(ev)


def test_copy_completions_profile_as_message_copy(monkeypatch):
    """Every bounce-buffer copy completion is filed under
    ``mpi``/``message.copy``, whose count is one per engine event like
    every other bucket's; the events carry exactly the intercepted
    deposits."""
    intercepted = []
    deposit = NIC.deposit

    def counting_deposit(self, addr, size, *, intercept):
        result = deposit(self, addr, size, intercept=intercept)
        if result.intercepted:
            intercepted.append(size)
        return result

    monkeypatch.setattr(NIC, "deposit", counting_deposit)
    prof = _CopyCountingProfiler()
    config = paper_config("sage-50MB", nranks=8, timeslice=1.0,
                          run_duration=40.0)
    run_experiment(config, obs=Observability(profiler=prof))
    profile = prof.profile()
    copy = [c for c in profile["categories"]
            if (c["subsystem"], c["kind"]) == ("mpi", "message.copy")]
    assert len(copy) == 1
    assert copy[0]["count"] == prof.copy_events > 0
    assert prof.copies == len(intercepted)
    # completions at one instant share an event
    assert prof.copy_events < prof.copies
    assert not any("finish" in c["kind"] for c in profile["categories"])

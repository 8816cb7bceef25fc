"""End-to-end observability: real simulations with the tracer, metrics,
and progress threads attached, plus the determinism contract."""

import io
import json

from repro.cluster.experiment import paper_config, run_experiment, \
    sweep_timeslices
from repro.exec import ResultCache, SweepExecutor
from repro.faults import FaultPlan, run_with_failures
from repro.obs import (
    ENGINE_DISPATCH,
    DEFAULT_CATEGORIES,
    MetricsRegistry,
    Observability,
    ProgressReporter,
    Tracer,
    strip_wall_times,
)
from repro.sim import Engine


def full_obs(**tracer_kwargs):
    tracer_kwargs.setdefault("wall_clock", None)
    return Observability(tracer=Tracer(**tracer_kwargs),
                         metrics=MetricsRegistry())


def small_config(**overrides):
    overrides.setdefault("nranks", 2)
    overrides.setdefault("timeslice", 1.0)
    overrides.setdefault("run_duration", 10.0)
    return paper_config("lu", **overrides)


# -- run_experiment ------------------------------------------------------------

def test_traced_run_records_all_default_subsystems():
    obs = full_obs()
    run_experiment(small_config(), obs=obs)
    cats = {ev["cat"] for ev in obs.tracer.events}
    assert {"timeslice", "net"} <= cats
    names = obs.metrics.names()
    assert "instrument.slices" in names
    assert "net.messages_sent" in names
    assert "sim.engine.dispatched" in names


def test_metrics_agree_with_trace():
    obs = full_obs()
    run_experiment(small_config(), obs=obs)
    slices = sum(1 for ev in obs.tracer.events if ev["name"] == "timeslice")
    assert obs.metrics.counter("instrument.slices").value == slices


def test_disabled_obs_records_nothing():
    obs = Observability()
    result = run_experiment(small_config(), obs=obs)
    assert result.iterations > 0
    assert obs.tracer.enabled is False
    assert obs.metrics.names() == []


def test_traced_run_result_identical_to_bare_run():
    """Tracing must never perturb the simulation itself."""
    bare = run_experiment(small_config())
    traced = run_experiment(small_config(), obs=full_obs())
    assert traced.final_time == bare.final_time
    assert traced.iterations == bare.iterations
    assert (traced.log(0).iws_bytes() == bare.log(0).iws_bytes()).all()


def test_same_seed_traces_are_bit_identical():
    a, b = full_obs(), full_obs()
    run_experiment(small_config(), obs=a)
    run_experiment(small_config(), obs=b)
    assert a.tracer.events == b.tracer.events
    assert json.dumps(a.tracer.to_chrome()) == json.dumps(b.tracer.to_chrome())


def test_wall_annotated_traces_agree_after_stripping():
    a = Observability(tracer=Tracer(), metrics=MetricsRegistry())
    b = Observability(tracer=Tracer(), metrics=MetricsRegistry())
    run_experiment(small_config(), obs=a)
    run_experiment(small_config(), obs=b)
    assert a.tracer.events != b.tracer.events  # wall clock differs...
    assert (strip_wall_times(a.tracer.events)
            == strip_wall_times(b.tracer.events))  # ...sim time does not


def test_engine_dispatch_firehose_is_opt_in():
    quiet = full_obs()
    run_experiment(small_config(), obs=quiet)
    assert not any(ev["cat"] == ENGINE_DISPATCH
                   for ev in quiet.tracer.events)
    loud = full_obs(categories=DEFAULT_CATEGORIES | {ENGINE_DISPATCH})
    run_experiment(small_config(), obs=loud)
    dispatch = [ev for ev in loud.tracer.events
                if ev["cat"] == ENGINE_DISPATCH]
    assert len(dispatch) > 100
    assert dispatch[0]["ts"] >= 0


# -- engine hooks --------------------------------------------------------------

def test_engine_event_hook_sees_every_dispatch():
    eng = Engine()
    seen = []
    eng.add_event_hook(seen.append)
    eng.schedule(1.0, int)
    eng.schedule(2.0, int)
    eng.run()
    assert len(seen) == 2


# -- fault runs ----------------------------------------------------------------

def test_traced_fault_run_records_recovery():
    plan = FaultPlan.exponential(20.0, 2, 60.0, seed=3)
    obs = full_obs()
    result = run_with_failures(small_config(run_duration=20.0), plan,
                               interval_slices=2, full_every=4, obs=obs)
    names = {ev["name"] for ev in obs.tracer.events}
    assert any(n.startswith("life") for n in names)
    if result.failures:
        assert "recovery" in names
        assert obs.metrics.counter("faults.failures").value \
            == len(result.failures)
    # per-life engine stats were published under distinct prefixes
    assert any(n.startswith("sim.engine.life0.")
               for n in obs.metrics.names())


def test_fault_run_progress_feed():
    plan = FaultPlan.exponential(15.0, 2, 60.0, seed=5)
    stream = io.StringIO()
    stream.isatty = lambda: False
    obs = Observability(metrics=MetricsRegistry(),
                        progress=ProgressReporter(stream=stream,
                                                  min_interval=0.0))
    result = run_with_failures(small_config(run_duration=15.0), plan,
                               interval_slices=2, obs=obs)
    obs.progress.close()
    assert "life 0 launched" in stream.getvalue()
    if len(result.lives) > 1:
        assert "restarted" in stream.getvalue()


# -- sweeps --------------------------------------------------------------------

def test_sweep_records_probe_and_cache_metrics(tmp_path):
    obs = Observability(metrics=MetricsRegistry())
    cache = ResultCache(tmp_path / "cache")
    config = small_config(run_duration=6.0)
    sweep_timeslices(config, [1.0, 2.0], cache=cache, obs=obs)
    assert obs.metrics.histogram("exec.run").count == 2
    assert obs.metrics.counter("exec.cache.misses").value == 2
    sweep_timeslices(config, [1.0, 2.0], cache=cache, obs=obs)
    assert obs.metrics.counter("exec.cache.hits").value == 2
    assert obs.metrics.gauge("exec.cache.hits_total").value == 2


def test_sweep_progress_feed(tmp_path):
    stream = io.StringIO()
    stream.isatty = lambda: False
    obs = Observability(metrics=MetricsRegistry(),
                        progress=ProgressReporter(stream=stream,
                                                  min_interval=0.0))
    SweepExecutor(obs=obs).run_many(
        [small_config(run_duration=6.0, timeslice=t) for t in (1.0, 2.0)])
    assert "sweep 2/2" in stream.getvalue()


def test_sweep_results_unchanged_by_obs(tmp_path):
    config = small_config(run_duration=6.0)
    bare = sweep_timeslices(config, [1.0, 2.0])
    traced = sweep_timeslices(config, [1.0, 2.0], obs=full_obs())
    for ts in (1.0, 2.0):
        assert traced[ts].ib().avg_mbps == bare[ts].ib().avg_mbps

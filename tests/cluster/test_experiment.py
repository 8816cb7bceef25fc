"""Integration tests for the experiment harness (small scales)."""

import io

import pytest

from repro.apps.synthetic import small_spec
from repro.cluster import (
    ClusterSpec,
    ExperimentConfig,
    NodeSpec,
    RX2600,
    run_experiment,
    sweep_processors,
    sweep_timeslices,
)
from repro.cli import main
from repro.cluster.experiment import paper_config, run_uninstrumented
from repro.errors import ConfigurationError
from repro.units import GiB, MiB


def tiny_config(**kw):
    kw.setdefault("spec", small_spec(period=1.0, footprint_mb=4, main_mb=2))
    kw.setdefault("nranks", 2)
    kw.setdefault("timeslice", 0.5)
    kw.setdefault("run_duration", 5.0)
    return ExperimentConfig(**kw)


def test_run_experiment_produces_traces_for_all_ranks():
    res = run_experiment(tiny_config(nranks=3))
    assert sorted(res.logs) == [0, 1, 2]
    assert res.iterations >= 4
    assert res.init_end_time > 0
    assert res.final_time > res.init_end_time


def test_ib_and_footprint_derivations():
    res = run_experiment(tiny_config())
    stats = res.ib()
    assert stats.avg_mbps > 0
    assert stats.max_mbps >= stats.avg_mbps
    fp = res.footprint()
    assert fp.max_mb == pytest.approx(4.0, rel=0.2)
    assert 0 < res.iws_ratio() <= 1.0
    assert res.measured_period() == pytest.approx(1.0, rel=0.2)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        tiny_config(nranks=0)
    with pytest.raises(ConfigurationError):
        tiny_config(timeslice=0.0)


def test_ckpt_block_size_checked_only_when_set():
    # page mode never uses a block size, so small pages are fine
    cfg = paper_config("sage-100MB", nranks=2).scaled(page_size=128)
    assert cfg.ckpt_block_size is None
    assert cfg.scaled(ckpt_block_size=64).ckpt_block_size == 64
    for bad in (0, 96, 256):
        with pytest.raises(ConfigurationError):
            cfg.scaled(ckpt_block_size=bad)


def test_sweep_timeslices_ib_declines():
    cfg = tiny_config(spec=small_spec(period=2.0, footprint_mb=4, main_mb=2,
                                      passes=3.0),
                      run_duration=10.0)
    results = sweep_timeslices(cfg, [0.5, 2.0])
    avg = {ts: r.ib().avg_mbps for ts, r in results.items()}
    assert avg[2.0] < avg[0.5]
    with pytest.raises(ConfigurationError):
        sweep_timeslices(cfg, [])


def test_sweep_processors_weak_scaling():
    cfg = tiny_config(run_duration=6.0)
    results = sweep_processors(cfg, [1, 2, 4])
    for n, res in results.items():
        assert len(res.logs) == n
        # per-process footprint constant under weak scaling
        assert res.footprint().max_mb == pytest.approx(4.0, rel=0.2)
    with pytest.raises(ConfigurationError):
        sweep_processors(cfg, [])


def test_run_duration_extends_for_long_timeslices():
    cfg = tiny_config(timeslice=10.0, run_duration=5.0)
    res = run_experiment(cfg)
    assert len(res.log(0)) >= 4  # harness stretched the run


def test_slowdown_vs_baseline():
    spec = small_spec(period=1.0, footprint_mb=8, main_mb=4, passes=2.0)
    cfg = tiny_config(spec=spec, run_duration=5.0, charge_overhead=True,
                      fault_cost=100e-6)
    instrumented = run_experiment(cfg)
    baseline = run_uninstrumented(cfg)
    slowdown = instrumented.slowdown_vs(baseline)
    assert slowdown > 0.0
    assert slowdown < 1.0  # not absurd


def test_baseline_run_shares_the_five_timeslice_floor():
    # a run_duration shorter than five timeslices is stretched for the
    # instrumented run and its uninstrumented baseline alike
    cfg = tiny_config(timeslice=1.0, run_duration=0.5)
    assert cfg.duration == 5.0
    instrumented = run_experiment(cfg)
    baseline = run_uninstrumented(cfg)
    assert baseline.final_time == instrumented.final_time
    assert baseline.iterations == instrumented.iterations
    assert instrumented.slowdown_vs(baseline) == pytest.approx(0.0)


@pytest.mark.parametrize("cfg, final_time, iterations", [
    (tiny_config(spec=small_spec(period=1.0, footprint_mb=8, main_mb=4,
                                 passes=2.0),
                 run_duration=5.0, charge_overhead=True, fault_cost=100e-6),
     5.1450015, 5),
    (tiny_config(timeslice=1.0, run_duration=0.5), 5.0825015, 5),
    (paper_config("lu", nranks=2, timeslice=0.5, run_duration=8.0,
                  charge_overhead=True), 8.50003770345052, 12),
])
def test_baseline_run_is_pinned(cfg, final_time, iterations):
    # the uninstrumented baseline shares run_experiment's assembly minus
    # the library; with nothing to charge, charge_overhead changes
    # nothing, and the clock ends where it always has
    baseline = run_uninstrumented(cfg)
    assert baseline.final_time == final_time
    assert baseline.iterations == iterations
    assert baseline.logs == {} and baseline.library is None
    assert baseline.ckpt is None


def test_non_positive_run_duration_rejected():
    for bad in (0.0, -5.0):
        with pytest.raises(ConfigurationError):
            tiny_config(run_duration=bad)
    # every subcommand rejects it in argparse (exit 2, no traceback)
    for argv in (["run", "--app", "lu", "--ranks", "2"],
                 ["sweep", "--app", "lu", "--ranks", "2", "--no-cache"],
                 ["faults", "run", "--app", "lu", "--ranks", "2"]):
        for bad in ("0", "-5"):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--duration", bad], io.StringIO())
            assert exc.value.code == 2


def test_paper_config_builder():
    cfg = paper_config("lu", nranks=2, run_duration=5.0)
    assert cfg.spec.name == "lu"
    res = run_experiment(cfg)
    assert res.ib().avg_mbps > 0


def test_scaled_copy():
    cfg = tiny_config()
    cfg2 = cfg.scaled(timeslice=2.0)
    assert cfg2.timeslice == 2.0 and cfg.timeslice == 0.5


# -- node/cluster specs --------------------------------------------------------------

def test_rx2600_spec():
    assert RX2600.cpus == 2
    assert RX2600.io_buses == 2
    assert RX2600.max_dirty_rate() == RX2600.memory_write_bandwidth


def test_node_validation():
    with pytest.raises(ConfigurationError):
        NodeSpec("bad", cpus=0, memory_write_bandwidth=1, io_buses=1,
                 memory_capacity=1)
    with pytest.raises(ConfigurationError):
        NodeSpec("bad", cpus=1, memory_write_bandwidth=0, io_buses=1,
                 memory_capacity=1)


def test_cluster_spec():
    cluster = ClusterSpec(nnodes=32)
    assert cluster.nnodes * cluster.node.cpus == 64  # the paper's testbed
    assert 100 * MiB <= cluster.node.max_dirty_rate() < 100 * GiB
    with pytest.raises(ConfigurationError):
        ClusterSpec(nnodes=0)


def test_measured_ib_within_node_memory_bandwidth():
    """Physical sanity: no app demands more IB than the Itanium II's
    memory system could write."""
    res = run_experiment(tiny_config())
    node = res.config.cluster.node
    assert res.ib().max_mbps * MiB <= node.max_dirty_rate()

"""SweepExecutor: ordering, determinism across jobs, cache interplay."""

import pytest

from repro.errors import ConfigurationError
from repro.cluster.experiment import (
    paper_config,
    run_experiment,
    sweep_timeslices,
)
from repro.exec import ResultCache, SweepExecutor

TIMESLICES = [1.0, 2.0, 5.0]


@pytest.fixture(scope="module")
def base_config():
    return paper_config("lu", nranks=2, run_duration=6.0)


def _ib_tuple(result):
    ib = result.ib()
    return (ib.avg_mbps, ib.max_mbps, ib.avg_iws_mb, ib.max_iws_mb)


def test_results_in_submission_order(base_config):
    configs = [base_config.scaled(timeslice=ts) for ts in TIMESLICES]
    results = SweepExecutor(jobs=1).run_many(configs)
    assert [r.config.timeslice for r in results] == TIMESLICES


def test_parallel_matches_serial_bit_identical(base_config):
    configs = [base_config.scaled(timeslice=ts) for ts in TIMESLICES]
    serial = SweepExecutor(jobs=1).run_many(configs)
    parallel = SweepExecutor(jobs=2).run_many(configs)
    assert [_ib_tuple(r) for r in serial] == [_ib_tuple(r) for r in parallel]
    for s, p in zip(serial, parallel):
        assert s.iteration_starts == p.iteration_starts
        assert s.final_time == p.final_time


def test_cached_matches_live_bit_identical(tmp_path, base_config):
    configs = [base_config.scaled(timeslice=ts) for ts in TIMESLICES]
    cache = ResultCache(tmp_path / "cache")
    cold = SweepExecutor(jobs=1, cache=cache).run_many(configs)
    assert cache.misses == len(configs)
    warm = SweepExecutor(jobs=1, cache=cache).run_many(configs)
    assert cache.hits == len(configs)
    assert [_ib_tuple(r) for r in cold] == [_ib_tuple(r) for r in warm]


def test_mixed_hits_and_misses_keep_order(tmp_path, base_config):
    cache = ResultCache(tmp_path / "cache")
    warm_cfg = base_config.scaled(timeslice=2.0)
    cache.put(warm_cfg, run_experiment(warm_cfg))
    configs = [base_config.scaled(timeslice=ts) for ts in TIMESLICES]
    results = SweepExecutor(jobs=1, cache=cache).run_many(configs)
    assert [r.config.timeslice for r in results] == TIMESLICES
    assert cache.hits == 1 and cache.misses == 2


def test_sweep_timeslices_routes_through_executor(tmp_path, base_config):
    cache = ResultCache(tmp_path / "cache")
    by_ts = sweep_timeslices(base_config, TIMESLICES, jobs=2, cache=cache)
    assert sorted(by_ts) == sorted(TIMESLICES)
    assert cache.misses == len(TIMESLICES)
    again = sweep_timeslices(base_config, TIMESLICES, jobs=1, cache=cache)
    assert cache.hits == len(TIMESLICES)
    assert [_ib_tuple(by_ts[t]) for t in TIMESLICES] == \
           [_ib_tuple(again[t]) for t in TIMESLICES]


def test_duplicate_values_deduped(base_config):
    by_ts = sweep_timeslices(base_config, [1.0, 1.0, 2.0], jobs=1)
    assert sorted(by_ts) == [1.0, 2.0]


def test_invalid_jobs_rejected():
    with pytest.raises(ConfigurationError):
        SweepExecutor(jobs=0)

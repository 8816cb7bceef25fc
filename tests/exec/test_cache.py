"""Persistent result cache: round-trips, invalidation, corruption."""

import json

import pytest

from repro.cluster.experiment import paper_config, run_experiment
from repro.exec import CACHE_FORMAT_VERSION, ResultCache, cache_key


@pytest.fixture(scope="module")
def small_config():
    return paper_config("lu", nranks=2, timeslice=1.0, run_duration=6.0)


@pytest.fixture(scope="module")
def small_result(small_config):
    return run_experiment(small_config)


def _ib_tuple(result):
    ib = result.ib()
    return (ib.avg_mbps, ib.max_mbps, ib.avg_iws_mb, ib.max_iws_mb)


def test_miss_then_hit_round_trip(tmp_path, small_config, small_result):
    cache = ResultCache(tmp_path / "cache")
    assert cache.get(small_config) is None
    assert cache.misses == 1
    cache.put(small_config, small_result)
    assert cache.entries() == [cache.key_for(small_config)]
    restored = cache.get(small_config)
    assert cache.hits == 1
    assert restored is not None
    assert restored.config == small_config
    assert _ib_tuple(restored) == _ib_tuple(small_result)
    assert restored.init_end_time == small_result.init_end_time
    assert restored.final_time == small_result.final_time
    assert restored.iteration_starts == small_result.iteration_starts
    # restored results are detached: no live simulation objects ride along
    assert restored.app is None and restored.job is None


def test_restored_traces_are_bit_identical(tmp_path, small_config,
                                           small_result):
    cache = ResultCache(tmp_path / "cache")
    cache.put(small_config, small_result)
    restored = cache.get(small_config)
    assert sorted(restored.logs) == sorted(small_result.logs)
    for rank, mine in small_result.logs.items():
        assert mine.records == restored.logs[rank].records


def test_config_change_is_a_miss(tmp_path, small_config, small_result):
    cache = ResultCache(tmp_path / "cache")
    cache.put(small_config, small_result)
    assert cache.get(small_config.scaled(timeslice=2.0)) is None


def test_clear_drops_every_entry(tmp_path, small_config, small_result):
    cache = ResultCache(tmp_path / "cache")
    cache.put(small_config, small_result)
    cache.clear()
    assert cache.entries() == []
    assert cache.get(small_config) is None


def test_corrupt_entry_is_a_miss_and_removed(tmp_path, small_config,
                                             small_result):
    cache = ResultCache(tmp_path / "cache")
    cache.put(small_config, small_result)
    key = cache_key(small_config)
    entry_dir = tmp_path / "cache" / key[:2] / key[2:]
    (entry_dir / "meta.json").write_text("{ not json")
    assert cache.get(small_config) is None
    assert not entry_dir.exists()


def test_format_version_mismatch_is_a_miss(tmp_path, small_config,
                                           small_result):
    cache = ResultCache(tmp_path / "cache")
    cache.put(small_config, small_result)
    key = cache_key(small_config)
    meta_path = tmp_path / "cache" / key[:2] / key[2:] / "meta.json"
    meta = json.loads(meta_path.read_text())
    assert meta["format_version"] == CACHE_FORMAT_VERSION
    meta["format_version"] = CACHE_FORMAT_VERSION + 1
    meta_path.write_text(json.dumps(meta))
    assert cache.get(small_config) is None


def test_put_is_idempotent(tmp_path, small_config, small_result):
    cache = ResultCache(tmp_path / "cache")
    cache.put(small_config, small_result)
    cache.put(small_config, small_result)  # no error, no duplicate
    assert cache.entries() == [cache.key_for(small_config)]

"""Unit tests for the metrics package."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.instrument.records import TimesliceRecord, TraceLog
from repro.metrics import (
    burst_duty_cycle,
    detect_bursts,
    estimate_period,
    footprint_stats,
    fraction_overwritten,
    ib_stats,
    iws_ratio,
    mean_omitting_first,
)
from repro.metrics.bursts import quiet_indices
from repro.units import MiB


def make_log(iws_mb_series, timeslice=1.0, footprint_mb=100.0, rx=0):
    log = TraceLog(rank=0, timeslice=timeslice, page_size=16384, app_name="t")
    for i, mb in enumerate(iws_mb_series):
        log.append(TimesliceRecord(
            index=i, t_start=i * timeslice, t_end=(i + 1) * timeslice,
            iws_pages=int(mb * MiB) // 16384, iws_bytes=int(mb * MiB),
            footprint_bytes=int(footprint_mb * MiB), faults=0,
            received_bytes=rx, overhead_time=0.0))
    return log


# -- ib_stats -------------------------------------------------------------------

def test_ib_stats_avg_and_max():
    log = make_log([10, 20, 30, 0])
    stats = ib_stats(log)
    assert stats.avg_mbps == pytest.approx(15.0)
    assert stats.max_mbps == pytest.approx(30.0)
    assert stats.n_slices == 4


def test_ib_stats_respects_timeslice():
    log = make_log([10, 20], timeslice=2.0)
    stats = ib_stats(log)
    assert stats.avg_mbps == pytest.approx(7.5)  # IWS/2s
    assert stats.avg_iws_mb == pytest.approx(15.0)


def test_ib_stats_skips_initialization():
    log = make_log([500, 10, 10, 10])
    stats = ib_stats(log, skip_until=1.0)
    assert stats.max_mbps == pytest.approx(10.0)
    assert stats.n_slices == 3


def test_ib_stats_empty_after_skip_raises():
    log = make_log([10, 20])
    with pytest.raises(ConfigurationError):
        ib_stats(log, skip_until=100.0)


def test_iws_ratio():
    log = make_log([25, 75], footprint_mb=100.0)
    assert iws_ratio(log) == pytest.approx(0.5)


def test_as_row_formats():
    stats = ib_stats(make_log([10]))
    assert "MB/s" in stats.as_row()


# -- period estimation ------------------------------------------------------------

def test_estimate_period_square_wave():
    x = np.tile([10, 10, 0, 0, 0, 0, 0, 0], 8)  # period 8 samples
    assert estimate_period(x, dt=1.0) == pytest.approx(8.0)


def test_estimate_period_scales_with_dt():
    x = np.tile([5, 0, 0, 0], 10)
    assert estimate_period(x, dt=0.5) == pytest.approx(2.0)


def test_estimate_period_sine():
    t = np.arange(200)
    x = np.sin(2 * np.pi * t / 25)
    assert estimate_period(x, dt=1.0) == pytest.approx(25.0, abs=1.0)


def test_estimate_period_validation():
    with pytest.raises(ConfigurationError):
        estimate_period(np.array([1, 2]), dt=1.0)
    with pytest.raises(ConfigurationError):
        estimate_period(np.ones(16), dt=1.0)  # constant
    with pytest.raises(ConfigurationError):
        estimate_period(np.arange(16), dt=0.0)


def test_fraction_overwritten():
    # timeslice == iteration period: each slice's IWS is one iteration's set
    log = make_log([53, 53, 53], timeslice=145.0, footprint_mb=100.0)
    assert fraction_overwritten(log) == pytest.approx(0.53)


# -- bursts ----------------------------------------------------------------------

def test_detect_bursts_basic():
    x = np.array([0, 0, 10, 12, 0, 0, 9, 0])
    bursts = detect_bursts(x, threshold_fraction=0.2)
    assert [(b.start, b.end) for b in bursts] == [(2, 4), (6, 7)]


def test_detect_bursts_merges_short_gaps():
    x = np.array([10, 0, 10, 0, 0, 0, 10])
    bursts = detect_bursts(x, threshold_fraction=0.2, min_gap=2)
    assert [(b.start, b.end) for b in bursts] == [(0, 3), (6, 7)]


def test_detect_bursts_burst_at_end():
    x = np.array([0, 0, 10, 10])
    bursts = detect_bursts(x)
    assert [(b.start, b.end) for b in bursts] == [(2, 4)]


def test_detect_bursts_all_quiet():
    assert detect_bursts(np.zeros(8)) == []
    assert detect_bursts(np.array([])) == []


def test_detect_bursts_validation():
    with pytest.raises(ConfigurationError):
        detect_bursts(np.ones(4), threshold_fraction=1.5)
    with pytest.raises(ConfigurationError):
        detect_bursts(np.ones((2, 2)))
    with pytest.raises(ConfigurationError):
        detect_bursts(np.ones(4), min_gap=0)


def test_burst_duty_cycle():
    x = np.array([10, 10, 0, 0, 0, 0, 0, 0])
    assert burst_duty_cycle(x) == pytest.approx(0.25)
    with pytest.raises(ConfigurationError):
        burst_duty_cycle(np.array([]))


def test_quiet_indices():
    x = np.array([0, 10, 10, 0, 0])
    assert list(quiet_indices(x)) == [0, 3, 4]


# -- stats ------------------------------------------------------------------------

def test_mean_omitting_first():
    assert mean_omitting_first([100, 10, 20]) == pytest.approx(15.0)
    assert mean_omitting_first([42]) == 42.0
    with pytest.raises(ConfigurationError):
        mean_omitting_first([])


def test_footprint_stats():
    log = TraceLog(rank=0, timeslice=1.0, page_size=16384)
    for i, fp in enumerate([50, 100, 75]):
        log.append(TimesliceRecord(index=i, t_start=i, t_end=i + 1,
                                   iws_pages=0, iws_bytes=0,
                                   footprint_bytes=int(fp * MiB), faults=0,
                                   received_bytes=0, overhead_time=0.0))
    stats = footprint_stats(log)
    assert stats.max_mb == pytest.approx(100.0)
    assert stats.avg_mb == pytest.approx(75.0)
    assert "MB" in stats.as_row()

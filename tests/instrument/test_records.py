"""Unit tests for timeslice records and trace logs."""

import numpy as np
import pytest

from repro.instrument.records import TimesliceRecord, TraceLog
from repro.units import MiB


def rec(i, iws_mb=1.0, duration=1.0, fp_mb=100.0, rx=0, ovh=0.0, faults=0):
    return TimesliceRecord(
        index=i, t_start=i * duration, t_end=(i + 1) * duration,
        iws_pages=int(iws_mb * MiB) // 16384, iws_bytes=int(iws_mb * MiB),
        footprint_bytes=int(fp_mb * MiB), faults=faults, received_bytes=rx,
        overhead_time=ovh)


def test_record_derived_properties():
    r = rec(0, iws_mb=2.0, duration=2.0)
    assert r.duration == 2.0
    assert r.iws_mb == pytest.approx(2.0)


def test_record_zero_duration_ib():
    # a zero-length slice contributes IB 0, not a division by zero
    r = TimesliceRecord(index=0, t_start=1.0, t_end=1.0, iws_pages=1,
                        iws_bytes=16384, footprint_bytes=1, faults=0,
                        received_bytes=0, overhead_time=0.0)
    log = TraceLog(rank=0, timeslice=1.0, page_size=16384, app_name="t")
    log.append(r)
    assert log.ib_mbps().tolist() == [0.0]


def test_log_series_views():
    log = TraceLog(rank=3, timeslice=1.0, page_size=16384, app_name="x")
    for i in range(4):
        log.append(rec(i, iws_mb=i + 1, rx=i * 100, ovh=i * 0.01,
                       faults=i * 2))
    assert len(log) == 4
    assert list(log.times()) == [1.0, 2.0, 3.0, 4.0]
    assert np.allclose(log.iws_mb(), [1, 2, 3, 4])
    assert np.allclose(log.ib_mbps(), [1, 2, 3, 4])
    assert np.allclose(log.received_mb() * MiB, [0, 100, 200, 300])
    assert list(log.faults()) == [0, 2, 4, 6]
    assert log.total_overhead() == pytest.approx(0.06)
    assert np.allclose(log.footprint_mb(), [100] * 4)


def test_after_filters_by_slice_start():
    log = TraceLog(rank=0, timeslice=1.0, page_size=16384)
    for i in range(5):
        log.append(rec(i))
    view = log.after(2.0)
    assert len(view) == 3
    assert view.records[0].t_start == 2.0
    # metadata carried over
    assert view.rank == log.rank and view.timeslice == log.timeslice
    # the original is untouched
    assert len(log) == 5


def test_after_with_tolerance_at_boundary():
    log = TraceLog(rank=0, timeslice=1.0, page_size=16384)
    log.append(rec(0))
    view = log.after(1e-12)
    assert len(view) == 1  # boundary jitter tolerated


def test_iteration_over_log():
    log = TraceLog(rank=0, timeslice=1.0, page_size=16384)
    log.append(rec(0))
    log.append(rec(1))
    assert [r.index for r in log] == [0, 1]

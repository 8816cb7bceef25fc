"""Unit tests for the COW window's write-duration estimate, one per sink
family (``write_duration`` of the sink contract)."""

import pytest

from repro.net.models import LinkSpec
from repro.sim import Engine
from repro.storage import Disk, DiskSpec, DisklessSink, StorageArray


def test_disk_estimate_includes_queue_and_transfer():
    eng = Engine()
    disk = Disk(eng, DiskSpec("t", bandwidth=100.0, seek_latency=1.0))
    assert disk.write_duration(200) == pytest.approx(3.0)
    disk.write(100)  # queue busy for 2 s
    assert disk.write_duration(200) == pytest.approx(5.0)


def test_array_estimate_uses_aggregate_bandwidth():
    eng = Engine()
    arr = StorageArray(eng, 4, DiskSpec("t", bandwidth=100.0,
                                        seek_latency=0.0))
    assert arr.write_duration(800) == pytest.approx(2.0)


def test_diskless_estimate_uses_link():
    eng = Engine()
    sink = DisklessSink(eng, link=LinkSpec("t", bandwidth=100.0,
                                           latency=1.0))
    assert sink.write_duration(100) == pytest.approx(2.0)

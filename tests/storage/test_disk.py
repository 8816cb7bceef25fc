"""Unit tests for disk and array models."""

import pytest

from repro.errors import ConfigurationError, StorageError
from repro.sim import Engine, SimProcess
from repro.storage import Disk, DiskSpec, SCSI_ULTRA320, StorageArray
from repro.units import MiB


def test_diskspec_write_time():
    spec = DiskSpec("t", bandwidth=100.0, seek_latency=1.0)
    assert spec.write_time(200) == pytest.approx(3.0)
    assert spec.write_time(0) == pytest.approx(1.0)
    with pytest.raises(ConfigurationError):
        spec.write_time(-1)


def test_diskspec_validation():
    with pytest.raises(ConfigurationError):
        DiskSpec("bad", bandwidth=0, seek_latency=0)
    with pytest.raises(ConfigurationError):
        DiskSpec("bad", bandwidth=1, seek_latency=-1)


def test_scsi_spec_matches_paper():
    assert SCSI_ULTRA320.bandwidth == 320 * MiB


def test_disk_write_completion_time():
    eng = Engine()
    disk = Disk(eng, DiskSpec("t", bandwidth=100.0, seek_latency=1.0))
    fut = disk.write(100)
    eng.run()
    assert fut.resolved
    assert fut.value == pytest.approx(2.0)
    assert disk.bytes_written == 100
    assert disk.ops == 1


def test_disk_writes_serialize():
    eng = Engine()
    disk = Disk(eng, DiskSpec("t", bandwidth=100.0, seek_latency=1.0))
    f1 = disk.write(100)   # completes at 2
    f2 = disk.write(100)   # starts at 2, completes at 4
    assert disk.queue_delay() == pytest.approx(4.0)
    eng.run()
    assert f1.value == pytest.approx(2.0)
    assert f2.value == pytest.approx(4.0)


def test_disk_negative_write_rejected():
    eng = Engine()
    disk = Disk(eng)
    with pytest.raises(StorageError):
        disk.write(-1)


def test_process_can_block_on_disk_write():
    eng = Engine()
    disk = Disk(eng, DiskSpec("t", bandwidth=100.0, seek_latency=1.0))
    done = []

    def body():
        yield disk.write(100)
        done.append(eng.now)

    SimProcess(eng, body())
    eng.run()
    assert done == [pytest.approx(2.0)]


# -- array --------------------------------------------------------------------

def test_array_aggregate_bandwidth():
    eng = Engine()
    arr = StorageArray(eng, 4, DiskSpec("t", bandwidth=100.0, seek_latency=0.0))
    assert arr.bandwidth == pytest.approx(400.0)


def test_array_striping_speeds_up_large_writes():
    eng = Engine()
    spec = DiskSpec("t", bandwidth=100.0, seek_latency=0.0)
    single = Disk(eng, spec)
    arr = StorageArray(eng, 4, spec, stripe_unit=100)
    f_single = single.write(800)
    f_arr = arr.write(800)
    eng.run()
    assert f_single.value == pytest.approx(8.0)
    assert f_arr.value == pytest.approx(2.0)  # 2 chunks per disk
    assert arr.bytes_written == 800


def test_array_zero_byte_write_resolves_immediately():
    eng = Engine()
    arr = StorageArray(eng, 2)
    fut = arr.write(0)
    assert fut.resolved


def test_array_validation():
    eng = Engine()
    with pytest.raises(StorageError):
        StorageArray(eng, 0)
    with pytest.raises(StorageError):
        StorageArray(eng, 2, stripe_unit=0)
    arr = StorageArray(eng, 2)
    with pytest.raises(StorageError):
        arr.write(-1)


def test_fail_next_writes_resolves_none_and_counts():
    eng = Engine()
    disk = Disk(eng, DiskSpec("t", bandwidth=100.0, seek_latency=0.5))
    disk.fail_next_writes(1)
    got = []
    disk.write(100).add_callback(got.append)
    disk.write(100).add_callback(got.append)
    eng.run()
    assert got[0] is None                 # injected failure
    assert got[1] == pytest.approx(3.0)   # FIFO: queued behind the failure
    assert disk.writes_failed == 1
    assert disk.ops == 2
    assert disk.bytes_written == 100      # lost bytes never count
    assert disk.busy_time == pytest.approx(3.0)  # the disk still spun


def test_fail_next_writes_budget_accumulates():
    eng = Engine()
    disk = Disk(eng, SCSI_ULTRA320)
    disk.fail_next_writes(2)
    results = []
    for _ in range(3):
        disk.write(10).add_callback(results.append)
    eng.run()
    assert results[0] is None and results[1] is None
    assert results[2] is not None
    assert disk.writes_failed == 2


def test_fail_next_writes_validation():
    disk = Disk(Engine(), SCSI_ULTRA320)
    with pytest.raises(StorageError):
        disk.fail_next_writes(0)


def test_array_write_with_failed_chunk_resolves_none():
    eng = Engine()
    arr = StorageArray(eng, ndisks=2)
    arr.disks[0].fail_next_writes(1)
    got = []
    arr.write(4 * MiB).add_callback(got.append)
    eng.run()
    assert got == [None]                  # one lost chunk loses the write
    assert arr.disks[0].writes_failed == 1
    assert arr.bytes_written == 3 * MiB


def test_reserve_matches_write_accounting_without_events():
    eng = Engine()
    spec = DiskSpec("t", bandwidth=100.0, seek_latency=0.5)
    disk = Disk(eng, spec)
    assert disk.reserve(100) == (pytest.approx(1.5), True)
    disk.fail_next_writes(1)
    assert disk.reserve(100) == (pytest.approx(3.0), False)
    assert eng.pending_events() == 0
    assert (disk.ops, disk.writes_failed, disk.bytes_written) == (2, 1, 100)
    arr = StorageArray(eng, 2, spec, stripe_unit=100)
    assert arr.reserve(300) == (pytest.approx(3.0), True)  # 2 chunks on d0
    assert eng.pending_events() == 0

"""Unit tests for the DMA-capable NIC and the bounce-buffer deposit path."""

import pytest

from repro.errors import NetworkError
from repro.mem import Layout
from repro.net import Message, Network, NIC, QSNET2
from repro.proc import Process
from repro.sim import Engine
from repro.units import KiB

PS = 16 * KiB


def make_nic(strict_dma=True):
    eng = Engine()
    net = Network(eng, 2, spec=QSNET2)
    proc = Process(eng, layout=Layout(page_size=PS), data_size=8 * PS)
    nic = NIC(1, net, proc, strict_dma=strict_dma)
    return eng, net, proc, nic


def test_receive_upcall_and_counters():
    eng, net, proc, nic = make_nic()
    got = []
    nic.on_message = got.append
    net.send(Message(src=0, dst=1, size=4096))
    eng.run()
    assert len(got) == 1
    assert nic.bytes_received == 4096
    assert nic.messages_received == 1


def test_intercepted_deposit_faults_normally():
    """Bounce-buffer path: the CPU copy takes ordinary protection faults,
    so received data shows up in the dirty set."""
    eng, net, proc, nic = make_nic()
    proc.mprotect_data()
    res = nic.deposit(proc.memory.data.base, 2 * PS, intercept=True)
    assert res.intercepted
    assert res.write.faults == 2
    assert res.copy_time > 0
    assert proc.memory.dirty_pages() == 2


def test_dma_deposit_bypasses_tracking_when_unprotected():
    eng, net, proc, nic = make_nic()
    res = nic.deposit(proc.memory.data.base, 2 * PS, intercept=False)
    assert not res.intercepted
    assert res.write.faults == 0
    assert res.copy_time == 0.0
    assert proc.memory.dirty_pages() == 0    # modification invisible...
    # ...but not *missed*: protection was never armed, so the tracker
    # would not have caught a CPU store to these pages either
    assert nic.dma_missed_pages == 0


def test_lenient_dma_missed_counts_only_armed_pages():
    """Missed pages are exactly the protected-and-clean ones the armed
    tracker would have caught had the store gone through the MMU."""
    eng, net, proc, nic = make_nic(strict_dma=False)
    proc.mprotect_data()
    res = nic.deposit(proc.memory.data.base, 3 * PS, intercept=False)
    assert res.write.missed == 3
    assert nic.dma_missed_pages == 3


def test_strict_dma_into_protected_page_raises():
    """The hardware conflict of section 4.2: the NIC cannot write into
    mprotect'ed memory."""
    eng, net, proc, nic = make_nic(strict_dma=True)
    proc.mprotect_data()
    with pytest.raises(NetworkError):
        nic.deposit(proc.memory.data.base, PS, intercept=False)


def test_lenient_dma_into_protected_page_undercounts():
    eng, net, proc, nic = make_nic(strict_dma=False)
    proc.mprotect_data()
    res = nic.deposit(proc.memory.data.base, PS, intercept=False)
    assert res.write.missed == 1
    assert proc.memory.dirty_pages() == 0


def test_deposit_size_validation():
    eng, net, proc, nic = make_nic()
    with pytest.raises(NetworkError):
        nic.deposit(proc.memory.data.base, 0, intercept=True)


def test_copy_time_scales_with_size():
    eng, net, proc, nic = make_nic()
    small = nic.deposit(proc.memory.data.base, PS, intercept=True)
    large = nic.deposit(proc.memory.data.base, 4 * PS, intercept=True)
    assert large.copy_time == pytest.approx(4 * small.copy_time)


def test_detach_stops_delivery():
    eng, net, proc, nic = make_nic()
    got = []
    nic.on_message = got.append
    nic.detach()
    net.send(Message(src=0, dst=1, size=64))
    eng.run()
    assert got == []


def test_fail_detaches_and_discards_everything():
    eng, net, proc, nic = make_nic()
    got = []
    nic.on_message = got.append
    net.send(Message(src=0, dst=1, size=64))   # in flight at failure time
    nic.fail()
    nic.fail()                                 # idempotent
    assert nic.failed
    net.send(Message(src=0, dst=1, size=64))   # detached: silently lost
    eng.run()
    assert got == []
    assert nic.messages_received == 0

"""Unit tests for units/formatting helpers."""

import pytest

from repro import units


def test_size_constants():
    assert units.KiB == 1024
    assert units.MiB == 1024 ** 2
    assert units.GiB == 1024 ** 3
    assert units.DEFAULT_PAGE_SIZE == 16 * 1024


def test_mb_round_trip():
    assert units.from_mb(954.6) / units.MiB == pytest.approx(954.6, abs=1e-6)


def test_mbps():
    assert units.QSNET2_BANDWIDTH / units.MiB == pytest.approx(900.0)
    assert units.SCSI_BANDWIDTH / units.MiB == pytest.approx(320.0)


def test_fmt_bytes():
    assert units.fmt_bytes(512) == "512 B"
    assert units.fmt_bytes(2048) == "2.0 KB"
    assert units.fmt_bytes(3 * units.MiB) == "3.0 MB"
    assert units.fmt_bytes(2 * units.GiB) == "2.0 GB"
    assert units.fmt_bytes(-2048) == "-2.0 KB"


def test_fmt_bandwidth():
    assert units.fmt_bandwidth(78.8 * units.MiB).endswith("MB/s")


def test_fmt_seconds():
    assert units.fmt_seconds(1.5) == "1.50 s"
    assert units.fmt_seconds(0.015) == "15.00 ms"
    assert units.fmt_seconds(15e-6) == "15.0 us"


def test_pages_for():
    assert units.pages_for(0) == 0
    assert units.pages_for(1) == 1
    assert units.pages_for(units.DEFAULT_PAGE_SIZE) == 1
    assert units.pages_for(units.DEFAULT_PAGE_SIZE + 1) == 2
    assert units.pages_for(10 * units.MiB, page_size=4096) == 2560


def test_pages_for_negative_rejected():
    with pytest.raises(ValueError):
        units.pages_for(-1)


def test_page_alignment():
    ps = 4096
    assert units.page_align_down(4097, ps) == 4096
    assert units.page_align_down(4096, ps) == 4096
    assert units.page_align_up(4097, ps) == 8192
    assert units.page_align_up(4096, ps) == 4096
    assert units.page_align_up(0, ps) == 0


def test_is_power_of_two():
    assert units.is_power_of_two(1)
    assert units.is_power_of_two(16384)
    assert not units.is_power_of_two(0)
    assert not units.is_power_of_two(3)
    assert not units.is_power_of_two(-4)

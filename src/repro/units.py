"""Units, constants, and formatting helpers shared across the library.

The paper reports sizes in decimal megabytes (MB = 10**6 bytes is *not*
what it uses -- LANL performance papers of that era use binary MB) and
bandwidths in MB/s.  We follow the binary convention (1 MB = 2**20 bytes)
everywhere, which is what the instrumentation library in the paper counted
(whole pages of 2**n bytes).
"""

from __future__ import annotations

KiB: int = 1024
MiB: int = 1024 * KiB
GiB: int = 1024 * MiB

#: Default page size.  Linux on the Itanium II systems used in the paper
#: ran with 16 KiB pages; this is configurable throughout the library.
DEFAULT_PAGE_SIZE: int = 16 * KiB

#: Peak bandwidth of the Quadrics QsNet II (Elan4) network, per the paper, B/s.
QSNET2_BANDWIDTH: float = 900.0 * MiB

#: Peak bandwidth of an Ultra320 SCSI disk, per the paper, B/s.
SCSI_BANDWIDTH: float = 320.0 * MiB

MICROSECOND: float = 1e-6
MILLISECOND: float = 1e-3


def from_mb(megabytes: float) -> int:
    """Convert (binary) megabytes to a whole number of bytes."""
    return int(round(megabytes * MiB))


def fmt_bytes(nbytes: float) -> str:
    """Human-readable byte count, e.g. ``'954.6 MB'``."""
    sign = "-" if nbytes < 0 else ""
    n = abs(float(nbytes))
    for unit, width in (("GB", GiB), ("MB", MiB), ("KB", KiB)):
        if n >= width:
            return f"{sign}{n / width:.1f} {unit}"
    return f"{sign}{n:.0f} B"


def fmt_bandwidth(bytes_per_second: float) -> str:
    """Human-readable bandwidth, e.g. ``'78.8 MB/s'``."""
    return fmt_bytes(bytes_per_second) + "/s"


def fmt_seconds(seconds: float) -> str:
    """Human-readable duration."""
    if seconds >= 1.0:
        return f"{seconds:.2f} s"
    if seconds >= MILLISECOND:
        return f"{seconds / MILLISECOND:.2f} ms"
    return f"{seconds / MICROSECOND:.1f} us"


def pages_for(nbytes: int, page_size: int = DEFAULT_PAGE_SIZE) -> int:
    """Number of pages needed to hold ``nbytes`` (ceiling division)."""
    if nbytes < 0:
        raise ValueError(f"negative byte count: {nbytes}")
    return -(-nbytes // page_size)


def page_align_down(addr: int, page_size: int = DEFAULT_PAGE_SIZE) -> int:
    """Round ``addr`` down to a page boundary."""
    return addr - (addr % page_size)


def page_align_up(addr: int, page_size: int = DEFAULT_PAGE_SIZE) -> int:
    """Round ``addr`` up to a page boundary."""
    return page_align_down(addr + page_size - 1, page_size)


def is_power_of_two(n: int) -> bool:
    """True iff ``n`` is a positive power of two."""
    return n > 0 and (n & (n - 1)) == 0

"""Address-space layout constants.

Mirrors the Itanium II / Linux layout sketched in the paper (section 4.1):
initialized and uninitialized data follow the text, then the heap growing
toward higher addresses; mmap'ed regions live in their own area; the stack
starts at a fixed address and grows down.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.units import DEFAULT_PAGE_SIZE, GiB, KiB, MiB, is_power_of_two


@dataclass(frozen=True)
class Layout:
    """Fixed virtual-address layout for a simulated process.

    All bases must be page-aligned.  Defaults give each area far more
    room than any of the paper's workloads need (the largest Sage
    configuration maps under 1 GB).
    """

    page_size: int = DEFAULT_PAGE_SIZE
    text_base: int = 0x0400_0000
    text_size: int = 8 * MiB
    #: base of the initialized-data segment (follows text)
    data_base: int = 0x0500_0000
    #: base of the mmap area
    mmap_base: int = 0x20_0000_0000
    mmap_limit: int = 0x40_0000_0000
    #: the stack starts here and grows toward lower addresses
    stack_top: int = 0x80_0000_0000
    max_stack: int = 64 * MiB
    #: hard ceiling for the heap (brk)
    heap_limit: int = 0x10_0000_0000

    def __post_init__(self) -> None:
        if not is_power_of_two(self.page_size):
            raise ConfigurationError(
                f"page size must be a power of two, got {self.page_size}")
        for name in ("text_base", "data_base", "mmap_base", "mmap_limit",
                     "stack_top", "heap_limit"):
            value = getattr(self, name)
            if value % self.page_size:
                raise ConfigurationError(
                    f"{name}={value:#x} is not aligned to page size {self.page_size}")
        if self.text_base + self.text_size > self.data_base:
            raise ConfigurationError("text segment overlaps data base")
        if self.mmap_base >= self.mmap_limit:
            raise ConfigurationError("empty mmap area")
        if self.heap_limit > self.mmap_base:
            raise ConfigurationError("heap area overlaps mmap area")
        if self.stack_top - self.max_stack < self.mmap_limit:
            raise ConfigurationError("stack area overlaps mmap area")

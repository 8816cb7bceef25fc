"""Simulated paged virtual memory.

This package models exactly the machinery the paper's instrumentation
library relies on:

- an address space divided into text, data, BSS, heap, stack and mmap
  segments (:mod:`~repro.mem.layout`, :mod:`~repro.mem.segment`);
- per-page *write protection* and *dirty* state, maintained in vectorized
  NumPy bitmaps (:mod:`~repro.mem.pagetable`);
- the fault path: a CPU store to a protected page raises a write fault,
  which the registered handler (the dirty-page tracker) services by
  recording the page and unprotecting it -- so each page faults at most
  once per checkpoint timeslice;
- DMA writes (the QsNet NIC) which **bypass** protection and dirty
  tracking, reproducing the hazard the paper works around with bounce
  buffers;
- page *content signatures* (64-bit write versions) so checkpoint/restore
  correctness can be verified without storing gigabytes.
"""

from repro.mem.blocks import BlockTable
from repro.mem.layout import Layout
from repro.mem.pagetable import PageTable
from repro.mem.segment import Segment, SegmentKind
from repro.mem.address_space import AddressSpace, WriteResult

__all__ = [
    "AddressSpace",
    "BlockTable",
    "Layout",
    "PageTable",
    "Segment",
    "SegmentKind",
    "WriteResult",
]

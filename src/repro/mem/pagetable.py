"""Vectorized per-page state for one segment.

Three NumPy arrays hold the page state:

``protected``
    write-protection bit, set by the tracker's ``mprotect`` sweep;
``dirty``
    set when a CPU store hits a *protected* page (the fault path) --
    exactly the paper's definition of a dirty page: "pages in which the
    write accesses occur" while protection is armed;
``versions``
    64-bit content signature, bumped on every write (CPU or DMA).  Two
    address spaces hold identical data iff their version arrays match,
    which is how checkpoint-restore correctness is asserted without
    storing page payloads.  The view is read-only: every change goes
    through a method, which also drops the cached :meth:`PageTable.leaf`.

All bulk operations are O(range) NumPy slices; a full-scale Sage-1000MB
footprint is ~61k pages, so a whole timeslice costs microseconds.

The three visible arrays are *views* into over-allocated backing buffers
that grow geometrically, so the brk/sbrk growth pattern (thousands of
small increments during Sage's allocation phase) costs amortized O(1)
per page instead of one full ``np.concatenate`` copy per call.
"""

from __future__ import annotations

from hashlib import sha256
from typing import Optional

import numpy as np

from repro.errors import MappingError


class PageTable:
    """Page-granular protection / dirty / version state."""

    __slots__ = ("npages", "protected", "dirty", "versions",
                 "_capacity", "_protected_buf", "_dirty_buf", "_versions_buf",
                 "_ndirty", "_dirty_overlap", "_all_protected", "_hwm",
                 "_leaf")

    def __init__(self, npages: int):
        if npages < 0:
            raise MappingError(f"negative page count: {npages}")
        self.npages = npages
        #: exact dirty-page count, maintained incrementally so the
        #: per-timeslice alarm sweep is O(1) per segment instead of a
        #: count_nonzero scan
        self._ndirty = 0
        #: True when protection may have been armed over dirty pages
        #: (protect-without-reset); forces the slow newly-dirty count in
        #: cpu_write until the next reset
        self._dirty_overlap = False
        #: True when every page is known write-protected -- lets the
        #: alarm's re-protect sweep skip untouched segments entirely
        self._all_protected = False
        self._allocate(npages, npages)

    def _allocate(self, capacity: int, preserve: int = 0) -> None:
        """(Re)allocate the backing buffers at ``capacity`` pages, carrying
        over the first ``preserve`` pages of live state."""
        protected = np.zeros(capacity, dtype=bool)
        dirty = np.zeros(capacity, dtype=bool)
        versions = np.zeros(capacity, dtype=np.uint64)
        if preserve and getattr(self, "_protected_buf", None) is not None:
            protected[:preserve] = self._protected_buf[:preserve]
            dirty[:preserve] = self._dirty_buf[:preserve]
            versions[:preserve] = self._versions_buf[:preserve]
        self._capacity = capacity
        self._protected_buf = protected
        self._dirty_buf = dirty
        self._versions_buf = versions
        #: high-water mark: buffer pages at index >= _hwm have never held
        #: state since this allocation, so re-exposing them needs no wipe
        self._hwm = preserve
        self._reslice()

    def _reslice(self) -> None:
        """Refresh the public views after npages or the buffers changed."""
        n = self.npages
        self.protected = self._protected_buf[:n]
        self.dirty = self._dirty_buf[:n]
        versions = self._versions_buf[:n]
        versions.setflags(write=False)
        self.versions = versions
        self._leaf = None

    def leaf(self) -> bytes:
        """sha256 of the ``versions`` view: this segment's leaf of
        :meth:`AddressSpace.state_digest`.  Cached until the next write,
        resize, recycle, split or :meth:`load_versions`, so a digest
        rehashes only the tables changed since the previous one."""
        leaf = self._leaf
        if leaf is None:
            leaf = self._leaf = sha256(self.versions).digest()
        return leaf

    def load_versions(self, values: np.ndarray) -> None:
        """Overwrite every page's version (checkpoint restore)."""
        if len(values) != self.npages:
            raise MappingError(
                f"{len(values)} versions for a table of {self.npages} pages")
        self._versions_buf[:self.npages] = values
        self._leaf = None

    # -- writes ---------------------------------------------------------------

    def cpu_write(self, lo: int, hi: int, version: int) -> int:
        """A CPU store to pages ``[lo, hi)``.

        Protected pages fault: they are marked dirty and unprotected (the
        SEGV handler's action).  Returns the number of faults taken.
        """
        if not 0 <= lo <= hi <= self.npages:
            self._check_range(lo, hi)  # raises with the full message
        sl = slice(lo, hi)
        if self._all_protected and not self._dirty_overlap and lo < hi:
            # first store after a full re-protect sweep: every page in
            # range faults, none is dirty -- plain fills, no counting
            nfaults = hi - lo
            self.dirty[sl] = True
            self.protected[sl] = False
            self._ndirty += nfaults
            self._all_protected = False
            self._versions_buf[sl] = version
            self._leaf = None
            return nfaults
        prot = self.protected[sl]
        nfaults = int(np.count_nonzero(prot))
        if nfaults:
            if self._dirty_overlap:
                # protection was armed over an existing dirty set, so a
                # faulting page may already be dirty: count exactly
                newly = nfaults - int(np.count_nonzero(self.dirty[sl] & prot))
            else:
                # invariant dirty & protected == 0 holds (reset always
                # precedes re-protect), so every fault dirties a new page
                newly = nfaults
            self.dirty[sl] |= prot
            self.protected[sl] = False
            self._ndirty += newly
            self._all_protected = False
        self._versions_buf[sl] = version
        self._leaf = None
        return nfaults

    def dma_write(self, lo: int, hi: int, version: int) -> int:
        """A device (NIC) write to pages ``[lo, hi)``.

        DMA bypasses the MMU: content changes but no fault is taken, the
        dirty bit is *not* set, and protection is left in place.  Returns
        the number of pages whose modification went unrecorded (i.e. that
        were neither already dirty nor unprotected-and-tracked) -- the
        pages an incremental checkpoint would silently miss.

        A page counts as missed only when it is protected *and* clean:
        the protection armed by the tracker proves the page was meant to
        fault on its next store, and the DMA defeated exactly that.
        Unprotected clean pages are outside the armed tracking window
        (pre-arm startup, or an explicit unprotect) and were never going
        to fault anyway; dirty pages are already in the IWS.
        """
        self._check_range(lo, hi)
        sl = slice(lo, hi)
        missed = int(np.count_nonzero(self.protected[sl] & ~self.dirty[sl]))
        self._versions_buf[sl] = version
        self._leaf = None
        return missed

    # -- protection ------------------------------------------------------------

    def protect_all(self) -> None:
        """Write-protect every page (the alarm handler's re-protect sweep)."""
        if not self._all_protected:
            self.protected[:] = True
            self._all_protected = True
        if self._ndirty:
            self._dirty_overlap = True

    def protect_range(self, lo: int, hi: int, value: bool = True) -> None:
        """mprotect a sub-range."""
        self._check_range(lo, hi)
        self.protected[lo:hi] = value
        if value:
            if self._ndirty:
                self._dirty_overlap = True
            if lo == 0 and hi == self.npages:
                self._all_protected = True
        elif lo < hi:
            self._all_protected = False

    def unprotect_all(self) -> None:
        """Drop write protection from every page."""
        self.protected[:] = False
        self._all_protected = False
        # no protected page survives, so no protected page is dirty
        self._dirty_overlap = False

    def any_protected(self, lo: int, hi: int) -> bool:
        """Whether any page in ``[lo, hi)`` is write-protected."""
        self._check_range(lo, hi)
        if lo >= hi:
            return False
        if self._all_protected:
            return True
        return bool(self.protected[lo:hi].any())

    # -- dirty accounting --------------------------------------------------------

    def dirty_count(self) -> int:
        """Number of dirty pages.  O(1): maintained incrementally."""
        return self._ndirty

    def dirty_indices(self) -> np.ndarray:
        """Indices of dirty pages (ascending)."""
        return np.flatnonzero(self.dirty)

    def reset_dirty(self) -> None:
        """Clear the dirty set (start of a new timeslice)."""
        if self._ndirty:
            self.dirty[:] = False
            self._ndirty = 0
        self._dirty_overlap = False

    # -- growth / shrink ------------------------------------------------------------

    def resize(self, npages: int) -> None:
        """Grow or shrink the table.  New pages arrive unprotected, clean,
        and at version 0 (zero-filled by the kernel).

        Shrinking just narrows the views; growing back within capacity
        wipes only the re-exposed range that ever held state (tracked by
        a high-water mark), so state dropped by a shrink never resurfaces
        and the brk shrink-then-regrow cycle costs O(pages moved), never
        O(table) and never a buffer copy.  Growth past capacity
        reallocates geometrically.
        """
        if npages < 0:
            raise MappingError(f"negative page count: {npages}")
        old = self.npages
        if npages == old:
            return
        if npages > self._capacity:
            # geometric over-allocation: amortized O(1) per added page
            self._allocate(max(npages, 2 * self._capacity, 8), preserve=old)
        elif npages > old:
            # re-expose pages within capacity: wipe stale tail state, but
            # only up to the high-water mark -- beyond it the buffers are
            # still in their freshly-allocated all-zero state
            wipe_hi = min(npages, self._hwm)
            if old < wipe_hi:
                self._protected_buf[old:wipe_hi] = False
                self._dirty_buf[old:wipe_hi] = False
                self._versions_buf[old:wipe_hi] = 0
        if npages > self._hwm:
            # every exposed page may come to hold state
            self._hwm = npages
        self.npages = npages
        self._reslice()
        if npages < old:
            # dropped pages may have been dirty: subtract exactly those
            # (O(pages dropped), not a recount of the whole table)
            if self._ndirty:
                self._ndirty -= int(
                    np.count_nonzero(self._dirty_buf[npages:old]))
        else:
            # new pages arrive unprotected
            self._all_protected = False

    def recycle(self) -> None:
        """Reset to the state a freshly constructed table of the same
        ``npages`` would have: every page unprotected, clean, version 0
        (the region arena reuses a parked segment instead of rebuilding
        it).  Only the range that ever held state (up to the high-water
        mark) is wiped, and the over-allocated buffers are kept."""
        hwm = self._hwm
        if hwm:
            self._protected_buf[:hwm] = False
            self._dirty_buf[:hwm] = False
            self._versions_buf[:hwm] = 0
        # a fresh PageTable(npages) starts with _hwm == npages
        self._hwm = self.npages
        self._ndirty = 0
        self._dirty_overlap = False
        self._all_protected = False
        self._leaf = None

    def split(self, at: int) -> "PageTable":
        """Split off pages ``[at, npages)`` into a new table (for partial
        munmap); this table keeps ``[0, at)``."""
        self._check_range(at, self.npages)
        tail = PageTable(self.npages - at)
        tail.protected[:] = self.protected[at:]
        tail.dirty[:] = self.dirty[at:]
        tail.load_versions(self.versions[at:])
        tail._ndirty = int(np.count_nonzero(tail.dirty))
        tail._dirty_overlap = self._dirty_overlap
        tail._all_protected = False
        self.resize(at)
        return tail

    # -- internals ---------------------------------------------------------------

    def _check_range(self, lo: int, hi: int) -> None:
        if not (0 <= lo <= hi <= self.npages):
            raise MappingError(
                f"page range [{lo}, {hi}) outside table of {self.npages} pages")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<PageTable npages={self.npages} dirty={self.dirty_count()} "
                f"protected={int(np.count_nonzero(self.protected))}>")


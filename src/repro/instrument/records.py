"""Trace records produced by the dirty-page tracker.

One :class:`TimesliceRecord` per checkpoint timeslice per rank; a
:class:`TraceLog` collects a rank's records and exposes the series the
paper plots: IWS size over time (Fig 1a), data received per timeslice
(Fig 1b), footprint over time (Table 2), fault counts and instrumentation
overhead (section 6.5).

Storage is **columnar**: the alarm hot path appends nine scalars to
parallel columns (:meth:`TraceLog.append_slice`) instead of building a
dataclass per slice -- at 1024 ranks a fig5 row logs half a million
slices, and the column arrays also make the series views cheap.
:attr:`TraceLog.records` materializes :class:`TimesliceRecord` objects
on demand (cached until the next append), so every existing consumer
keeps working unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.units import MiB


@dataclass(frozen=True)
class TimesliceRecord:
    """What the alarm handler logs at the end of one timeslice."""

    index: int              #: timeslice number (0-based)
    t_start: float          #: virtual time at slice start
    t_end: float            #: virtual time at the alarm
    iws_pages: int          #: dirty pages of currently mapped data memory
    iws_bytes: int          #: the same, in bytes
    footprint_bytes: int    #: mapped data memory at the alarm
    faults: int             #: protection faults taken during the slice
    received_bytes: int     #: message payload received during the slice
    overhead_time: float    #: instrumentation CPU time accrued this slice

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    @property
    def iws_mb(self) -> float:
        return self.iws_bytes / MiB


#: column order of one slice (matches TimesliceRecord's fields)
_COLUMNS = ("index", "t_start", "t_end", "iws_pages", "iws_bytes",
            "footprint_bytes", "faults", "received_bytes", "overhead_time")


class TraceLog:
    """A rank's timeslice records plus run metadata."""

    def __init__(self, *, rank: int, timeslice: float, page_size: int,
                 app_name: str = ""):
        self.rank = rank
        self.timeslice = timeslice
        self.page_size = page_size
        self.app_name = app_name
        #: parallel columns, one scalar per slice (see _COLUMNS)
        self._cols: tuple[list, ...] = tuple([] for _ in _COLUMNS)
        self._records_cache: Optional[list[TimesliceRecord]] = None

    def append_slice(self, index: int, t_start: float, t_end: float,
                     iws_pages: int, iws_bytes: int, footprint_bytes: int,
                     faults: int, received_bytes: int,
                     overhead_time: float) -> None:
        """Log one timeslice from its scalars (the alarm fast path: no
        record object is built unless :attr:`records` is read)."""
        (c_index, c_t0, c_t1, c_pages, c_bytes, c_fp, c_faults, c_recv,
         c_ovh) = self._cols
        c_index.append(index)
        c_t0.append(t_start)
        c_t1.append(t_end)
        c_pages.append(iws_pages)
        c_bytes.append(iws_bytes)
        c_fp.append(footprint_bytes)
        c_faults.append(faults)
        c_recv.append(received_bytes)
        c_ovh.append(overhead_time)
        self._records_cache = None

    def append(self, record: TimesliceRecord) -> None:
        """Add one timeslice record."""
        self.append_slice(record.index, record.t_start, record.t_end,
                          record.iws_pages, record.iws_bytes,
                          record.footprint_bytes, record.faults,
                          record.received_bytes, record.overhead_time)

    @property
    def records(self) -> list[TimesliceRecord]:
        """The slices as :class:`TimesliceRecord` objects (materialized
        lazily from the columns; cached until the next append)."""
        cached = self._records_cache
        if cached is None:
            cached = self._records_cache = [
                TimesliceRecord(*row) for row in zip(*self._cols)]
        return cached

    @records.setter
    def records(self, records) -> None:
        cols = tuple([] for _ in _COLUMNS)
        for r in records:
            for col, name in zip(cols, _COLUMNS):
                col.append(getattr(r, name))
        self._cols = cols
        self._records_cache = list(records)

    def __len__(self) -> int:
        return len(self._cols[0])

    def __iter__(self):
        return iter(self.records)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_records_cache"] = None     # columns are the wire format
        return state

    # -- series views ----------------------------------------------------------------

    def after(self, t: float) -> "TraceLog":
        """A view containing only slices that *start* at or after ``t``
        (used to drop the initialization burst, as the paper does)."""
        out = TraceLog(rank=self.rank, timeslice=self.timeslice,
                       page_size=self.page_size, app_name=self.app_name)
        keep = [i for i, t0 in enumerate(self._cols[1]) if t0 >= t - 1e-9]
        out._cols = tuple([col[i] for i in keep] for col in self._cols)
        return out

    def times(self) -> np.ndarray:
        """Slice end times (s)."""
        return np.array(self._cols[2])

    def iws_bytes(self) -> np.ndarray:
        """Per-slice IWS sizes in bytes."""
        return np.array(self._cols[4], dtype=np.int64)

    def iws_mb(self) -> np.ndarray:
        """Per-slice IWS sizes in MB."""
        return self.iws_bytes() / MiB

    def ib_mbps(self) -> np.ndarray:
        """Per-slice incremental bandwidth (MB/s)."""
        durations = np.array(self._cols[2]) - np.array(self._cols[1])
        return np.divide(self.iws_mb(), durations,
                         out=np.zeros(len(self)),
                         where=durations > 0)

    def received_mb(self) -> np.ndarray:
        """Per-slice data received in MB (Fig 1b's series)."""
        return np.array(self._cols[7]) / MiB

    def footprint_mb(self) -> np.ndarray:
        """Per-slice mapped data memory in MB."""
        return np.array(self._cols[5]) / MiB

    def faults(self) -> np.ndarray:
        """Per-slice protection-fault counts."""
        return np.array(self._cols[6], dtype=np.int64)

    def overhead_time(self) -> np.ndarray:
        """Per-slice instrumentation CPU time."""
        return np.array(self._cols[8])

    def total_overhead(self) -> float:
        """Instrumentation CPU time summed over the run."""
        return float(sum(self._cols[8]))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<TraceLog {self.app_name!r} rank={self.rank} "
                f"timeslice={self.timeslice} slices={len(self)}>")

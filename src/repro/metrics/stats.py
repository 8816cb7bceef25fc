"""Run-level summary statistics.

Includes the paper's experimental-methodology details: results are means
across repeated executions *omitting the first* (cold disk caches), and
footprints are reported as maximum and average over the run (Table 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.instrument.records import TraceLog
from repro.units import MiB


def mean_omitting_first(values: Sequence[float]) -> float:
    """Mean of repeated measurements, dropping the first execution
    (the paper's section 5 methodology for disk-cache warm-up)."""
    if len(values) == 0:
        raise ConfigurationError("no measurements")
    if len(values) == 1:
        return float(values[0])
    return float(np.mean(np.asarray(values, dtype=float)[1:]))


@dataclass(frozen=True)
class FootprintStats:
    """Table 2's two columns for one application."""

    max_mb: float
    avg_mb: float

    def as_row(self) -> str:
        """One printable footprint row."""
        return f"max={self.max_mb:7.1f} MB  avg={self.avg_mb:7.1f} MB"


def footprint_stats(log: TraceLog, skip_until: float = 0.0) -> FootprintStats:
    """Maximum and average memory footprint over the run's timeslices."""
    view = log.after(skip_until)
    if len(view) == 0:
        raise ConfigurationError(f"no timeslices after t={skip_until}")
    fp = view.footprint_mb()
    return FootprintStats(max_mb=float(fp.max()), avg_mb=float(fp.mean()))

"""Workload specifications: the calibration surface of the app models.

A :class:`WorkloadSpec` captures everything the instrumentation can
observe about an application, per process:

- *geometry*: total static footprint, the main working-set region
  rewritten every iteration, receive buffers, transient (Sage-style)
  allocations;
- *rhythm*: iteration period, the fraction of it spent in the processing
  burst and in the communication burst;
- *intensity*: how many cyclic passes over the working set each
  iteration makes (page *visits*; revisits within one timeslice are
  deduplicated by the dirty bit, revisits across timeslices are not --
  which is precisely why the incremental bandwidth falls as the
  timeslice grows);
- *communication*: bytes exchanged per iteration, the exchange pattern,
  and how many rounds spread it across the communication burst.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ConfigurationError
from repro.proc.allocator import AllocStyle
from repro.units import MiB


@dataclass(frozen=True)
class WorkloadSpec:
    """Per-process behavioural model of one application configuration."""

    name: str
    #: total statically allocated data memory (MB): main region + receive
    #: buffers + read-mostly remainder
    footprint_mb: float
    #: the working-set region rewritten each iteration (MB)
    main_region_mb: float
    #: duration of the main iteration (s)
    iteration_period: float
    #: cyclic passes over the main region per iteration (may be fractional)
    passes: float
    #: fraction of the period occupied by the processing burst
    burst_fraction: float
    #: bytes received per rank per iteration (MB)
    comm_mb_per_iteration: float = 0.0
    #: fraction of the period occupied by the communication burst
    comm_fraction: float = 0.1
    #: exchange rounds the communication burst is split into
    comm_rounds: int = 1
    #: sub-sweeps the processing burst is split into, with a pipelined
    #: exchange after each (Sweep3D: 8 octants; BT/SP: 3 directional
    #: passes; LU: 2 SSOR halves; FT: 3 FFT dimension passes).  The
    #: sub-sweeps continue each other's cursor, so the pages covered per
    #: iteration are identical to a single contiguous burst.
    sub_bursts: int = 1
    #: neighbour pattern: "ring", "grid2d", or "alltoall"
    comm_pattern: str = "ring"
    #: transient allocation per iteration (MB, Sage's temporaries); these
    #: are mmap'ed under the F90 allocator and freed before iteration end
    temp_mb: float = 0.0
    #: fraction of the period the temporaries stay live
    temp_hold_fraction: float = 0.1
    #: how long the allocating/initializing sweep of the temporaries
    #: takes (s); None -> a small default fraction of the period.  Short
    #: durations concentrate the temporary writes into one timeslice --
    #: Sage's per-iteration IWS spike.
    temp_alloc_duration: float | None = None
    #: allocator personality
    alloc_style: AllocStyle = AllocStyle.F77
    #: heap trim threshold override (bytes); None -> the allocator's
    #: glibc-like default.  A very large value models runtimes whose
    #: arena never returns memory to the kernel (so freed pages stay
    #: mapped and keep costing checkpoint bandwidth).
    heap_trim_threshold: int | None = None
    #: how the bulk of the footprint is allocated: "static" (data/BSS,
    #: the Fortran77 codes) or "dynamic" (heap/mmap at startup, Sage)
    main_allocation: str = "static"
    #: initialization write rate (MB/s) -- the paper's startup spike
    init_write_rate_mb: float = 250.0
    #: per-iteration global reduction (convergence test); its latency
    #: grows with log2(ranks), the mechanism behind Fig 5's slight
    #: decrease of per-process IB at larger processor counts
    global_reduction: bool = True

    # -- paper reference values (targets, not inputs to the simulation) ------------
    paper_avg_ib_1s: float = 0.0    #: Table 4 average IB at 1 s (MB/s)
    paper_max_ib_1s: float = 0.0    #: Table 4 maximum IB at 1 s (MB/s)
    paper_overwritten: float = 0.0  #: Table 3 fraction of memory overwritten
    paper_footprint_max_mb: float = 0.0  #: Table 2 maximum footprint
    paper_footprint_avg_mb: float = 0.0  #: Table 2 average footprint

    def __post_init__(self) -> None:
        if self.footprint_mb <= 0:
            raise ConfigurationError(f"{self.name}: footprint must be positive")
        if not (0 < self.main_region_mb <= self.footprint_mb):
            raise ConfigurationError(
                f"{self.name}: main region {self.main_region_mb} MB must fit "
                f"in the footprint {self.footprint_mb} MB")
        if self.iteration_period <= 0:
            raise ConfigurationError(f"{self.name}: period must be positive")
        if self.passes <= 0:
            raise ConfigurationError(f"{self.name}: passes must be positive")
        if not (0 < self.burst_fraction <= 1):
            raise ConfigurationError(f"{self.name}: burst fraction in (0, 1]")
        if not (0 <= self.comm_fraction < 1):
            raise ConfigurationError(f"{self.name}: comm fraction in [0, 1)")
        if self.burst_fraction + self.comm_fraction > 1.0 + 1e-9:
            raise ConfigurationError(
                f"{self.name}: burst + comm fractions exceed the period")
        if self.comm_rounds < 1:
            raise ConfigurationError(f"{self.name}: need at least one comm round")
        if self.sub_bursts < 1:
            raise ConfigurationError(f"{self.name}: need at least one sub-burst")
        if self.comm_pattern not in ("ring", "grid2d", "alltoall"):
            raise ConfigurationError(
                f"{self.name}: unknown comm pattern {self.comm_pattern!r}")
        if self.main_allocation not in ("static", "dynamic"):
            raise ConfigurationError(
                f"{self.name}: main_allocation must be 'static' or 'dynamic'")
        if self.temp_mb < 0 or not (0 <= self.temp_hold_fraction <= 1):
            raise ConfigurationError(f"{self.name}: bad temporary settings")

    # -- derived quantities ---------------------------------------------------------

    @property
    def footprint_bytes(self) -> int:
        return int(self.footprint_mb * MiB)

    @property
    def main_region_bytes(self) -> int:
        return int(self.main_region_mb * MiB)

    @property
    def temp_bytes(self) -> int:
        return int(self.temp_mb * MiB)

    @property
    def comm_bytes_per_iteration(self) -> int:
        return int(self.comm_mb_per_iteration * MiB)

    @property
    def recv_buffer_bytes(self) -> int:
        """Receive-buffer region: one round's worth of incoming data."""
        return -(-self.comm_bytes_per_iteration // self.comm_rounds)

    @property
    def burst_duration(self) -> float:
        return self.burst_fraction * self.iteration_period

    @property
    def comm_duration(self) -> float:
        return self.comm_fraction * self.iteration_period

    @property
    def init_duration(self) -> float:
        """Length of the startup initialization burst (s)."""
        return self.footprint_mb / self.init_write_rate_mb

    def scaled(self, **changes) -> "WorkloadSpec":
        """A copy with some fields replaced (parameter sweeps)."""
        return replace(self, **changes)

"""The generic application engine: spec -> process memory -> iterations.

A :class:`ScientificApplication` turns a :class:`~repro.apps.spec.WorkloadSpec`
into per-rank generator bodies for :class:`~repro.mpi.MPIJob.launch`:

1. *startup* -- allocate the footprint (statically in data/BSS for the
   Fortran77 codes, dynamically via the F90 allocator for Sage) and
   initialize it with a full write sweep: the startup spike visible at
   the left edge of the paper's Fig 1(a);
2. *iterations* -- the phase sequence derived from the spec: transient
   allocation, processing burst, communication burst, global reduction,
   idle remainder.  The iteration period is **emergent**: instrumentation
   overhead stretches compute phases rather than being absorbed by
   padding, which is what makes the section 6.5 intrusiveness
   measurements meaningful.

Weak scaling: the communication burst stretches mildly with log2(size)
(synchronization and exchange overhead), so the iteration period grows
by a few percent from 8 to 64 ranks and the per-process incremental
bandwidth *decreases slightly* -- the Fig 5 observation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Generator, Optional

from repro.apps.phases import (
    AllocPhase,
    AlltoallPhase,
    BarrierPhase,
    ComputePhase,
    FreePhase,
    HaloExchangePhase,
    IdlePhase,
    Phase,
    pad_until,
    sweep,
)
from repro.apps.regions import Region
from repro.apps.spec import WorkloadSpec
from repro.errors import ConfigurationError
from repro.mem import Layout
from repro.mpi import RankContext
from repro.proc import Allocator, Process
from repro.proc.allocator import AllocStyle
from repro.units import MiB, pages_for

#: fraction of the period spent allocating+writing Sage-style temporaries
_ALLOC_FRACTION = 0.02
#: relative growth of the communication burst per doubling of the rank
#: count (weak-scaling overhead)
_COMM_SCALE_PER_DOUBLING = 0.02


@dataclass
class AppRunContext:
    """Everything one rank's running application carries around."""

    app: "ScientificApplication"
    rank: int
    size: int
    engine: object
    process: Process
    comm: object
    allocator: Allocator
    neighbors: list[int]
    charge_overhead: bool
    regions: dict[str, Region] = field(default_factory=dict)
    blocks: dict[str, list] = field(default_factory=dict)
    #: per-region sweep cursors for cursor-continuing compute phases
    sweep_cursors: dict[str, int] = field(default_factory=dict)
    iteration_starts: list[float] = field(default_factory=list)
    init_end_time: float = 0.0
    iterations: int = 0
    _tag: int = 0

    @property
    def memory(self):
        return self.process.memory

    def region(self, name: str) -> Region:
        """The named region, or a clear error listing what exists."""
        try:
            return self.regions[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown region {name!r}; have {sorted(self.regions)}") from None

    def next_tag(self) -> int:
        """Monotonic application message tag, identical on every rank
        because all ranks execute the same phase sequence."""
        self._tag += 1
        return self._tag

    def use_stack(self, nbytes: int) -> None:
        """Simulate call-frame usage: write the top ``nbytes`` of the
        stack.  Stack writes never fault (the stack cannot be
        write-protected, section 4.2) and never enter the IWS; they feed
        the high-water measurement the paper reports (< 42 KB)."""
        mem = self.memory
        npages = min(mem.stack.npages,
                     -(-nbytes // mem.page_size))
        if npages > 0:
            lo = mem.stack.npages - npages
            mem.cpu_write_pages(mem.stack, lo, mem.stack.npages)


def neighbor_ranks(rank: int, size: int, pattern: str) -> list[int]:
    """Exchange partners for one rank under the given pattern."""
    if size <= 1:
        return []
    if pattern == "ring":
        out = [(rank - 1) % size, (rank + 1) % size]
    elif pattern == "grid2d":
        px = int(math.sqrt(size))
        while size % px:
            px -= 1
        py = size // px
        x, y = rank % px, rank // px
        out = [((x - 1) % px) + y * px, ((x + 1) % px) + y * px,
               x + ((y - 1) % py) * px, x + ((y + 1) % py) * px]
    elif pattern == "alltoall":
        out = [r for r in range(size) if r != rank]
    else:
        raise ConfigurationError(f"unknown neighbour pattern {pattern!r}")
    seen: list[int] = []
    for r in out:
        if r != rank and r not in seen:
            seen.append(r)
    return seen


class ScientificApplication:
    """Runs a :class:`WorkloadSpec` on the simulated cluster."""

    def __init__(self, spec: WorkloadSpec, *,
                 run_duration: Optional[float] = None,
                 n_iterations: Optional[int] = None,
                 charge_overhead: bool = False,
                 layout: Optional[Layout] = None):
        if run_duration is None and n_iterations is None:
            raise ConfigurationError(
                "need run_duration and/or n_iterations to bound the run")
        self.spec = spec
        self.run_duration = run_duration
        self.n_iterations = n_iterations
        self.charge_overhead = charge_overhead
        self.layout = layout or Layout()
        self._contexts: list[AppRunContext] = []

    # -- process construction -----------------------------------------------------

    def process_factory(self, engine) -> "callable":
        """A factory for :class:`~repro.mpi.MPIJob`'s ``process_factory``."""
        spec = self.spec

        def make(rank: int) -> Process:
            if spec.main_allocation == "static":
                # Fortran77 style: the whole footprint is compile-time
                # data; split it between initialized data and BSS the way
                # a Fortran common block would land.  A few pages of slack
                # absorb the per-region page rounding when regions are
                # carved out of the segments.
                data = spec.footprint_bytes // 4
                bss = (spec.footprint_bytes - data
                       + 4 * self.layout.page_size)
            else:
                # Sage: small static segments, the bulk arrives at run
                # time through the allocator.
                data = 2 * MiB
                bss = 2 * MiB
            return Process(engine, name=f"{spec.name}.r{rank}",
                           layout=self.layout, data_size=data, bss_size=bss)

        return make

    # -- body ------------------------------------------------------------------------

    def _build_run_context(self, ctx: RankContext) -> AppRunContext:
        alloc_kwargs = {}
        if self.spec.heap_trim_threshold is not None:
            alloc_kwargs["trim_threshold"] = self.spec.heap_trim_threshold
        rc = AppRunContext(
            app=self, rank=ctx.rank, size=ctx.size, engine=ctx.engine,
            process=ctx.process, comm=ctx.comm,
            allocator=Allocator(ctx.process, style=self.spec.alloc_style,
                                **alloc_kwargs),
            neighbors=neighbor_ranks(ctx.rank, ctx.size,
                                     self.spec.comm_pattern),
            charge_overhead=self.charge_overhead)
        self._contexts.append(rc)
        return rc

    def _iterate(self, rc: AppRunContext) -> Generator:
        """The steady-state loop shared by fresh starts and restarts."""
        while not self._done(rc):
            rc.iteration_starts.append(rc.engine.now)
            for phase in self.iteration_phases(rc):
                yield from phase.run(rc)
            rc.iterations += 1

    def make_body(self):
        """The body factory handed to :meth:`MPIJob.launch`."""

        def body(ctx: RankContext) -> Generator:
            rc = self._build_run_context(ctx)
            yield from self.startup(rc)
            rc.init_end_time = rc.engine.now
            yield from self._iterate(rc)

        self._contexts: list[AppRunContext] = []
        return body

    @property
    def contexts(self) -> list[AppRunContext]:
        """Per-rank run contexts (populated once bodies start)."""
        return self._contexts

    def _done(self, rc: AppRunContext) -> bool:
        if self.n_iterations is not None and rc.iterations >= self.n_iterations:
            return True
        if (self.run_duration is not None
                and rc.engine.now - rc.init_end_time >= self.run_duration):
            return True
        return False

    # -- startup -----------------------------------------------------------------------

    def allocate_regions(self, rc: AppRunContext) -> None:
        """Allocate the footprint and build the named regions (no
        writes).  Deterministic: the same spec always produces the same
        geometry, which is what lets a restart rebuild the address
        layout and then overlay the checkpointed content."""
        spec = self.spec
        main_b = spec.main_region_bytes
        recv_b = max(spec.recv_buffer_bytes, rc.memory.page_size)
        rest_b = max(spec.footprint_bytes - main_b - recv_b, 0)

        if spec.main_allocation == "static":
            self._carve_static_regions(rc, main_b, recv_b, rest_b)
        else:
            self._allocate_dynamic_regions(rc, main_b, recv_b, rest_b)

        whole = Region("whole", [e for name in ("main", "recvbuf", "rest")
                                 if name in rc.regions
                                 for e in rc.regions[name].extents])
        rc.regions["whole"] = whole

    def startup(self, rc: AppRunContext) -> Generator:
        """Allocate the footprint, build the named regions, and run the
        initialization write sweep."""
        self.allocate_regions(rc)
        yield from sweep(rc, rc.regions["whole"], self.spec.init_duration,
                         passes=1.0)
        # ranks start iterating together, like after a startup barrier
        yield from rc.comm.barrier()

    def _carve_static_regions(self, rc: AppRunContext, main_b: int,
                              recv_b: int, rest_b: int) -> None:
        """Lay the regions across the data and BSS segments in order."""
        mem = rc.memory
        ps = mem.page_size
        need = [("main", pages_for(main_b, ps)),
                ("recvbuf", pages_for(recv_b, ps)),
                ("rest", pages_for(rest_b, ps))]
        segs = [(mem.data, mem.data.npages), (mem.bss, mem.bss.npages)]
        total_have = sum(n for _, n in segs)
        total_need = sum(n for _, n in need)
        if total_need > total_have:
            raise ConfigurationError(
                f"{self.spec.name}: static regions need {total_need} pages, "
                f"segments provide {total_have}")
        si, offset = 0, 0
        from repro.apps.regions import Extent
        for name, npages in need:
            if npages == 0:
                continue
            extents = []
            left = npages
            while left > 0:
                seg, seg_pages = segs[si]
                take = min(left, seg_pages - offset)
                if take > 0:
                    extents.append(Extent(seg, offset, offset + take))
                    offset += take
                    left -= take
                if offset >= seg_pages:
                    si += 1
                    offset = 0
            rc.regions[name] = Region(name, extents)

    def _allocate_dynamic_regions(self, rc: AppRunContext, main_b: int,
                                  recv_b: int, rest_b: int) -> None:
        """Sage style: the big arrays come from the allocator (mmap for
        large blocks under F90), in several chunks like real meshes."""
        mem = rc.memory
        for name, nbytes, nblocks in (("main", main_b, 8),
                                      ("recvbuf", recv_b, 1),
                                      ("rest", rest_b, 2)):
            if nbytes <= 0:
                continue
            per = -(-nbytes // nblocks)
            blocks = [rc.allocator.malloc(per) for _ in range(nblocks)]
            rc.blocks[f"_static_{name}"] = blocks
            rc.regions[name] = Region.from_blocks(name, mem, blocks)

    # -- the iteration ----------------------------------------------------------------

    def iteration_phases(self, rc: AppRunContext) -> list[Phase]:
        """Build the phase sequence for one iteration of this workload."""
        spec = self.spec
        period = spec.iteration_period
        phases: list[Phase] = []

        alloc_dur = 0.0
        if spec.temp_bytes > 0:
            alloc_dur = (spec.temp_alloc_duration
                         if spec.temp_alloc_duration is not None
                         else _ALLOC_FRACTION * period)
            phases.append(AllocPhase("temps", spec.temp_bytes, alloc_dur))

        comm_dur = spec.comm_duration * self._comm_scale(rc.size)
        k = spec.sub_bursts
        pipelined = k > 1 and spec.comm_pattern != "alltoall"

        if pipelined:
            # sub-sweep then exchange, k times; the cursor makes the
            # sub-sweeps cover exactly what one contiguous burst would
            per_sub = spec.comm_bytes_per_iteration // k
            for i in range(k):
                phases.append(ComputePhase(
                    "main", spec.burst_duration / k, spec.passes / k,
                    label=f"burst{i + 1}/{k}", use_cursor=True))
                phases.append(HaloExchangePhase(
                    per_sub, comm_dur / k,
                    rounds=max(1, spec.comm_rounds // k),
                    recv_offset=i * per_sub,
                    label=f"halo{i + 1}/{k}"))
        elif k > 1:
            # FT: FFT dimension passes, then one transpose
            for i in range(k):
                phases.append(ComputePhase(
                    "main", spec.burst_duration / k, spec.passes / k,
                    label=f"fft-pass{i + 1}/{k}", use_cursor=True))
        else:
            phases.append(ComputePhase("main", spec.burst_duration,
                                       spec.passes, label="burst"))

        # Sage's temporaries are released right after the burst, before
        # the communication phase -- the hold window the Table 2
        # footprint calibration is built on
        if spec.temp_bytes > 0:
            hold = spec.temp_hold_fraction * period
            extra = hold - alloc_dur - spec.burst_duration
            if extra > 0:
                phases.append(IdlePhase(extra, label="hold-temps"))
            phases.append(FreePhase("temps"))

        if not pipelined:
            if spec.comm_pattern == "alltoall":
                phases.append(AlltoallPhase(spec.comm_bytes_per_iteration,
                                            comm_dur))
            else:
                phases.append(HaloExchangePhase(
                    spec.comm_bytes_per_iteration, comm_dur,
                    rounds=spec.comm_rounds))

        if spec.global_reduction and rc.size > 1:
            phases.append(BarrierPhase(reduction=True))

        used = (alloc_dur + spec.burst_duration + spec.comm_duration
                + (max(0.0, spec.temp_hold_fraction * period - alloc_dur
                       - spec.burst_duration) if spec.temp_bytes > 0 else 0.0))
        idle = period - used
        if idle > 0:
            phases.append(IdlePhase(idle, label="gap"))
        return phases

    @staticmethod
    def _comm_scale(size: int) -> float:
        """Communication-burst stretch under weak scaling."""
        if size <= 1:
            return 1.0
        return 1.0 + _COMM_SCALE_PER_DOUBLING * math.log2(size)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ScientificApplication {self.spec.name!r}>"

"""Workload phases: the building blocks of an application iteration.

The paper observes that scientific codes alternate *processing bursts*
(writes sweeping the working set) and *communication bursts* (message
exchange), with idle/read-dominated gaps between.  Each phase type here
reproduces one of those behaviours against the simulated process:

- :class:`ComputePhase` -- a cyclic sweep of page writes over a region,
  spread uniformly over the phase duration and **sliced at checkpoint
  timeslice boundaries** so dirty pages land in the correct timeslice
  (the EINTR-style interaction with the instrumentation alarm);
- :class:`HaloExchangePhase` / :class:`AlltoallPhase` -- neighbour and
  transpose communication, whose received data lands in (and re-dirties)
  receive buffers;
- :class:`AllocPhase` / :class:`FreePhase` -- Sage-style transient
  allocations (mmap'ed under the F90 allocator, so freeing them lets the
  memory-exclusion optimization drop their dirty pages);
- :class:`BarrierPhase` -- the per-iteration global synchronization /
  convergence reduction;
- :class:`IdlePhase` -- read-dominated gaps (no page writes).

If the instrumentation charges overhead (``charge_overhead``), compute
phases stretch their wall-clock by the fault-handling time accrued while
they ran -- the source of the intrusiveness numbers in section 6.5.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from repro.errors import ConfigurationError
from repro.apps.regions import Region
from repro.sim import Timeout

if TYPE_CHECKING:  # pragma: no cover
    from repro.apps.base import AppRunContext

#: never let an engine step underflow to zero (floating-point guard)
_MIN_STEP = 1e-9

#: simulated call-frame depths (bytes) per phase type; deep solver call
#: chains use the most.  Totals stay well under the 42 KB the paper
#: measured -- the justification for leaving the stack untracked.
_STACK_COMPUTE = 24 * 1024
_STACK_COMM = 8 * 1024
_STACK_ALLOC = 6 * 1024


def sweep(rc: "AppRunContext", region: Region, duration: float,
          passes: float, start_visit: int = 0) -> Generator:
    """Write ``passes`` cyclic passes over ``region`` spread uniformly
    across ``duration`` seconds, stopping at every timeslice boundary.

    ``start_visit`` lets a sweep continue where a previous one stopped
    (sub-burst structure: Sweep3D's octants, BT's x/y/z passes), so a
    split burst covers exactly the same pages as a single one.  The
    generator's return value is the visit index after the sweep.

    This is the shared engine of compute and initialization phases.
    """
    if duration <= 0:
        raise ConfigurationError(f"sweep duration must be positive: {duration}")
    visits_total = max(1, round(passes * region.npages))
    proc = rc.process
    elapsed = 0.0
    visits_done = 0
    while elapsed < duration - 1e-12:
        now = rc.engine.now
        dt = duration - elapsed
        next_alarm = proc.next_timer_expiry()
        if next_alarm is not None and next_alarm - now < dt:
            dt = max(next_alarm - now, _MIN_STEP)
        frac = min(1.0, (elapsed + dt) / duration)
        visits_end = min(visits_total, round(visits_total * frac))
        overhead_before = proc.overhead_time
        region.touch_visits(rc.memory, start_visit + visits_done,
                            start_visit + visits_end)
        visits_done = visits_end
        overhead = proc.overhead_time - overhead_before
        stretch = overhead if rc.charge_overhead else 0.0
        yield Timeout(dt + stretch)
        elapsed += dt
    return start_visit + visits_total


def pad_until(rc: "AppRunContext", target_time: float) -> Generator:
    """Sleep until the absolute time ``target_time`` (no-op if past)."""
    gap = target_time - rc.engine.now
    if gap > 0:
        yield Timeout(gap)


class Phase:
    """Base class; subclasses implement ``run(rc)`` as a generator."""

    label = "phase"

    def run(self, rc: "AppRunContext") -> Generator:
        """Execute the phase against the run context (a generator)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.label!r}>"


class ComputePhase(Phase):
    """A processing burst: cyclic page-write sweep over a named region.

    With ``use_cursor`` the sweep resumes at the visit index the previous
    cursor-using phase over the same region stopped at (stored in the run
    context), so a burst split into sub-sweeps -- Sweep3D's eight
    octants, BT's three directional passes -- covers exactly the pages a
    single contiguous sweep would.
    """

    def __init__(self, region_name: str, duration: float, passes: float,
                 label: str = "", use_cursor: bool = False):
        if passes <= 0:
            raise ConfigurationError(f"passes must be positive: {passes}")
        self.region_name = region_name
        self.duration = duration
        self.passes = passes
        self.use_cursor = use_cursor
        self.label = label or f"compute:{region_name}"

    def run(self, rc: "AppRunContext") -> Generator:
        rc.use_stack(_STACK_COMPUTE)
        region = rc.region(self.region_name)
        start = (rc.sweep_cursors.get(self.region_name, 0)
                 if self.use_cursor else 0)
        end = yield from sweep(rc, region, self.duration, self.passes,
                               start_visit=start)
        if self.use_cursor:
            rc.sweep_cursors[self.region_name] = end % region.npages


class IdlePhase(Phase):
    """A read-dominated gap: time passes, nothing is written."""

    def __init__(self, duration: float, label: str = "idle"):
        if duration < 0:
            raise ConfigurationError(f"negative idle duration {duration}")
        self.duration = duration
        self.label = label

    def run(self, rc: "AppRunContext") -> Generator:
        if self.duration > 0:
            yield Timeout(self.duration)


class HaloExchangePhase(Phase):
    """A communication burst: ``rounds`` neighbour exchanges spread over
    ``duration``, received data deposited into the receive-buffer region.

    ``recv_offset`` places the deposits at a byte offset within the
    buffer, so the sub-exchanges of a pipelined iteration (one per
    octant/directional sweep) fill *distinct* parts of it -- together
    they dirty the same buffer pages one monolithic exchange would.
    """

    def __init__(self, nbytes_total: int, duration: float, rounds: int = 1,
                 recv_region: str = "recvbuf", recv_offset: int = 0,
                 label: str = "halo"):
        if nbytes_total < 0 or rounds < 1 or duration < 0 or recv_offset < 0:
            raise ConfigurationError("bad halo-exchange parameters")
        self.nbytes_total = nbytes_total
        self.duration = duration
        self.rounds = rounds
        self.recv_region = recv_region
        self.recv_offset = recv_offset
        self.label = label

    def run(self, rc: "AppRunContext") -> Generator:
        rc.use_stack(_STACK_COMM)
        start = rc.engine.now
        neighbors = rc.neighbors
        if neighbors and rc.size > 1:
            per_round = self.nbytes_total // self.rounds
            per_neighbor = per_round // len(neighbors)
            region = rc.region(self.recv_region) if per_neighbor else None
            for r in range(self.rounds):
                tag = rc.next_tag()
                rc.comm.send_many(neighbors, per_neighbor, tag)
                offset = self.recv_offset
                for nb in neighbors:
                    addr = None
                    if region is not None and per_neighbor > 0:
                        if offset + per_neighbor > region.nbytes:
                            offset = 0  # wrap within the buffer
                        addr = region.base_addr() + offset
                        offset += per_neighbor
                    yield rc.comm.recv(source=nb, tag=tag, addr=addr,
                                       size=per_neighbor)
                yield from pad_until(
                    rc, start + (r + 1) * self.duration / self.rounds)
        yield from pad_until(rc, start + self.duration)


class AlltoallPhase(Phase):
    """A transpose-style exchange (the FT pattern): every rank sends
    ``nbytes_total / (size - 1)`` to every peer; arrivals land in the
    receive-buffer region."""

    def __init__(self, nbytes_total: int, duration: float,
                 recv_region: str = "recvbuf", label: str = "alltoall"):
        if nbytes_total < 0 or duration < 0:
            raise ConfigurationError("bad alltoall parameters")
        self.nbytes_total = nbytes_total
        self.duration = duration
        self.recv_region = recv_region
        self.label = label

    def run(self, rc: "AppRunContext") -> Generator:
        rc.use_stack(_STACK_COMM)
        start = rc.engine.now
        n = rc.size
        if n > 1 and self.nbytes_total > 0:
            per_peer = self.nbytes_total // (n - 1)
            region = rc.region(self.recv_region)
            if region.nbytes < per_peer * (n - 1):
                raise ConfigurationError(
                    f"receive region {region.name!r} ({region.nbytes} B) too "
                    f"small for alltoall of {per_peer * (n - 1)} B")
            yield from rc.comm.alltoall([None] * n, nbytes_each=per_peer,
                                        addr=region.base_addr())
        yield from pad_until(rc, start + self.duration)


class AllocPhase(Phase):
    """Allocate transient blocks and initialize (write) them.

    Under the F90 allocator large temporaries are mmap'ed; their pages
    are dirtied by the initializing sweep and disappear from the IWS the
    moment :class:`FreePhase` unmaps them (memory exclusion, section 4.2).
    """

    def __init__(self, name: str, nbytes: int, duration: float,
                 nblocks: int = 4, label: str = ""):
        if nbytes <= 0 or nblocks < 1 or duration <= 0:
            raise ConfigurationError("bad allocation parameters")
        self.name = name
        self.nbytes = nbytes
        self.nblocks = nblocks
        self.duration = duration
        self.label = label or f"alloc:{name}"

    def run(self, rc: "AppRunContext") -> Generator:
        rc.use_stack(_STACK_ALLOC)
        per_block = -(-self.nbytes // self.nblocks)
        # the malloc + page-table growth here is real *host* work inside
        # a generator-resume event; the profiler section splits it out of
        # process.resume so allocation churn shows up under its own name
        profiler = rc.engine.obs.profiler
        if profiler is None:
            blocks, region = self._materialize(rc, per_block)
        else:
            with profiler.section("app.region_alloc", rank=rc.rank):
                blocks, region = self._materialize(rc, per_block)
        rc.blocks[self.name] = blocks
        yield from sweep(rc, region, self.duration, passes=1.0)

    def _materialize(self, rc: "AppRunContext", per_block: int):
        """Allocate the blocks and the Region view over them."""
        blocks = [rc.allocator.malloc(per_block)
                  for _ in range(self.nblocks)]
        return blocks, Region.from_blocks(self.name, rc.memory, blocks)


class FreePhase(Phase):
    """Release the blocks created by the matching :class:`AllocPhase`."""

    def __init__(self, name: str, label: str = ""):
        self.name = name
        self.label = label or f"free:{name}"

    def run(self, rc: "AppRunContext") -> Generator:
        blocks = rc.blocks.pop(self.name, None)
        if blocks is None:
            raise ConfigurationError(
                f"free of unknown transient allocation {self.name!r}")
        profiler = rc.engine.obs.profiler
        if profiler is None:
            for block in blocks:
                rc.allocator.free(block)
        else:
            with profiler.section("app.region_free", rank=rc.rank):
                for block in blocks:
                    rc.allocator.free(block)
        yield from ()


class BarrierPhase(Phase):
    """Global synchronization, optionally with a convergence allreduce.

    The reduction's latency grows with log2(size): the reason weak-scaled
    iterations stretch slightly at larger processor counts (Fig 5).
    """

    def __init__(self, reduction: bool = True, label: str = "barrier"):
        self.reduction = reduction
        self.label = label

    def run(self, rc: "AppRunContext") -> Generator:
        if self.reduction:
            yield from rc.comm.allreduce(0.0, nbytes=8)
        else:
            yield from rc.comm.barrier()

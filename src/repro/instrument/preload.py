"""The LD_PRELOAD analog: attach a tracker to every rank of a job.

The real library rides in via the dynamic linker and springs to life
when the application calls ``MPI_Init``.  Here the equivalent seam is
:attr:`MPIJob.init_hooks`, which run at the start of every rank body.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigurationError
from repro.instrument.records import TraceLog
from repro.instrument.tracker import DirtyPageTracker, TrackerConfig
from repro.mpi import MPIJob, RankContext


class InstrumentationLibrary:
    """Per-job instrumentation: one :class:`DirtyPageTracker` per rank."""

    def __init__(self, config: Optional[TrackerConfig] = None,
                 app_name: str = ""):
        self.config = config or TrackerConfig()
        self.app_name = app_name
        self.trackers: dict[int, DirtyPageTracker] = {}
        self._installed_on: Optional[MPIJob] = None

    def install(self, job: MPIJob) -> "InstrumentationLibrary":
        """Register on the job; trackers attach as rank bodies start."""
        if self._installed_on is not None:
            raise ConfigurationError(
                "instrumentation library already installed on a job")
        self._installed_on = job
        job.init_hooks.append(self._on_mpi_init)
        job.fini_hooks.append(self._on_mpi_finalize)
        return self

    def _on_mpi_init(self, ctx: RankContext) -> None:
        if ctx.rank in self.trackers:  # relaunch after failure: reattach
            self.trackers[ctx.rank].detach()
        tracker = DirtyPageTracker(ctx.process, self.config, comm=ctx.comm,
                                   app_name=self.app_name)
        tracker.attach()
        self.trackers[ctx.rank] = tracker

    def _on_mpi_finalize(self, ctx: RankContext) -> None:
        """Disarm the rank's alarm when its body ends, so the event
        queue can drain (the MPI_Finalize interception)."""
        tracker = self.trackers.get(ctx.rank)
        if tracker is not None:
            tracker.detach()

    # -- results ------------------------------------------------------------------------

    def tracker(self, rank: int) -> DirtyPageTracker:
        """The tracker attached to one rank."""
        try:
            return self.trackers[rank]
        except KeyError:
            raise ConfigurationError(
                f"no tracker for rank {rank}; attached: {sorted(self.trackers)}"
            ) from None

    def records(self, rank: int = 0) -> TraceLog:
        """The timeslice trace of one rank."""
        return self.tracker(rank).log

    def all_records(self) -> dict[int, TraceLog]:
        """Every rank's trace, keyed by rank."""
        return {rank: t.log for rank, t in sorted(self.trackers.items())}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<InstrumentationLibrary app={self.app_name!r} "
                f"trackers={len(self.trackers)}>")

"""Restart-and-continue: resume a failed job from its checkpoints.

The full autonomic-computing loop the paper motivates: run, checkpoint,
fail, **restart from the last committed global checkpoint and keep
computing** -- without user intervention.

Restart-in-place mechanics (everything in the simulator is
deterministic, which the real systems the paper anticipates achieve with
recorded allocation maps):

1. build a fresh job (new processes, new NICs);
2. each rank body re-runs the application's *allocation* (no
   initialization writes) -- the geometry comes out identical to the
   failed run's;
3. the checkpoint chain's content is stamped over the fresh geometry
   (:func:`~repro.checkpoint.recovery.apply_chain`), verified strictly;
4. the ranks barrier and resume the iteration loop.

The instrumentation library and a new checkpoint engine can be installed
on the restarted job exactly like on the original one.
"""

from __future__ import annotations

from typing import Generator, Sequence

from repro.apps.base import ScientificApplication
from repro.checkpoint.recovery import apply_chain
from repro.checkpoint.snapshot import Checkpoint
from repro.mpi import MPIJob, RankContext
from repro.sim import Engine


def make_resume_body(app: ScientificApplication,
                     chains: dict[int, Sequence[Checkpoint]],
                     on_restored=None):
    """A body factory that restores each rank from ``chains[rank]`` and
    continues iterating.

    The chains are applied as given: verifying them is the caller's job
    (see :class:`RestartCoordinator`).  ``on_restored(ctx)``, if given, runs
    right after the chain has been applied and before any new
    computation -- the seam verification and logging hang off.
    """

    def body(ctx: RankContext) -> Generator:
        rc = app._build_run_context(ctx)
        app.allocate_regions(rc)
        apply_chain(ctx.memory, chains[ctx.rank], strict=True)
        ctx.memory.reset_dirty()
        if on_restored is not None:
            on_restored(ctx)
        yield from rc.comm.barrier()      # restart barrier
        rc.init_end_time = rc.engine.now
        yield from app._iterate(rc)

    return body


class RestartCoordinator:
    """Rebuilds and relaunches a job from one recovery chain per rank.

    The failure driver passes the chains its walk-back verified;
    standalone callers take them from
    :meth:`~repro.checkpoint.RecoveryManager.recovery_chains`, which
    verifies each rank's chain once.
    """

    def __init__(self, app: ScientificApplication,
                 chains: dict[int, Sequence[Checkpoint]]):
        self.app = app
        self.chains = chains

    def restart(self, engine: Engine, *, name: str = "restart",
                **job_kwargs) -> MPIJob:
        """Create the restarted job, one rank per chain (not yet
        launched); the caller may install instrumentation/checkpointing
        before :meth:`launch`."""
        return MPIJob(engine, len(self.chains), layout=self.app.layout,
                      process_factory=self.app.process_factory(engine),
                      name=name, **job_kwargs)

    def launch(self, job: MPIJob, on_restored=None):
        """Launch the resume bodies on a job built by :meth:`restart`."""
        return job.launch(make_resume_body(self.app, self.chains,
                                           on_restored=on_restored))

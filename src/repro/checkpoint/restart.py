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

from typing import Generator, Optional

from repro.apps.base import ScientificApplication
from repro.checkpoint.recovery import RecoveryManager, apply_chain
from repro.errors import RecoveryError
from repro.mpi import MPIJob, RankContext
from repro.sim import Engine
from repro.storage import CheckpointStore


def make_resume_body(app: ScientificApplication,
                     recovery: RecoveryManager,
                     seq: Optional[int] = None,
                     on_restored=None):
    """A body factory that restores state and continues iterating.

    ``on_restored(ctx)``, if given, runs right after the chain has been
    applied and before any new computation -- the seam verification and
    logging hang off.
    """

    def body(ctx: RankContext) -> Generator:
        rc = app._build_run_context(ctx)
        app.allocate_regions(rc)
        chain = recovery.recovery_chain(ctx.rank, seq)
        apply_chain(ctx.memory, chain, strict=True)
        ctx.memory.reset_dirty()
        if on_restored is not None:
            on_restored(ctx)
        yield from rc.comm.barrier()      # restart barrier
        rc.init_end_time = rc.engine.now
        yield from app._iterate(rc)

    return body


class RestartCoordinator:
    """Rebuilds and relaunches a job from a checkpoint store."""

    def __init__(self, store: CheckpointStore, app: ScientificApplication,
                 *, verify_integrity: bool = True):
        self.store = store
        self.app = app
        self.recovery = RecoveryManager(store, layout=app.layout,
                                        verify_integrity=verify_integrity)
        #: the committed sequence :meth:`restart` chose; None before it
        self._seq: Optional[int] = None

    def restart(self, engine: Engine, *, nranks: Optional[int] = None,
                seq: Optional[int] = None, name: str = "restart",
                **job_kwargs) -> MPIJob:
        """Create the restarted job (not yet launched); the caller may
        install instrumentation/checkpointing before :meth:`launch`."""
        nranks = nranks if nranks is not None else self.store.nranks
        if nranks != self.store.nranks:
            raise RecoveryError(
                f"restart must use the original rank count "
                f"{self.store.nranks}, got {nranks}")
        target = seq if seq is not None else self.store.latest_committed()
        if target is None:
            raise RecoveryError("no committed global checkpoint to restart from")
        self._seq = target
        return MPIJob(engine, nranks, layout=self.app.layout,
                      process_factory=self.app.process_factory(engine),
                      name=name, **job_kwargs)

    def launch(self, job: MPIJob, on_restored=None):
        """Launch the resume bodies on a job built by :meth:`restart`."""
        if self._seq is None:
            raise RecoveryError(
                "launch() needs a job built by restart(): no restart "
                "target has been chosen yet")
        return job.launch(make_resume_body(self.app, self.recovery,
                                           self._seq,
                                           on_restored=on_restored))

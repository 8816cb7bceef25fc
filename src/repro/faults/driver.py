"""The failure-recovery driver: run, fail, restore, continue.

:func:`run_with_failures` is the experiment entry point that closes the
paper's loop end-to-end on the simulated cluster: it runs an
instrumented, coordinated-checkpointed application under a
:class:`~repro.faults.plan.FaultPlan`, and every time a fatal fault
lands it

1. stops the virtual clock at the failure instant (the injector calls
   :meth:`~repro.sim.Engine.stop`),
2. finds the newest *committed* global checkpoint across all previous
   lives whose every rank chain passes integrity verification, and
   rolls every rank back to it: the chains that walk-back verified are
   the ones :class:`~repro.checkpoint.RestartCoordinator` applies.  A silently
   corrupted piece (bit flips, torn writes, dropped objects -- the
   FLIP/TRUNCATE/DROP fault kinds) is detected here: the poisoned
   committed sequence is rejected with a
   :class:`~repro.metrics.failures.CorruptionDetected` record and
   recovery *walks back* to the newest older intact one, or restarts
   from scratch when nothing verifies,
3. charges detection latency + chain-read restore time as downtime and
   the recomputation window as lost work
   (:class:`~repro.metrics.failures.FailureRecord`),
4. relaunches the job in a fresh *life* whose clock starts where the
   downtime ended, with a fresh checkpoint store headed by a new full
   checkpoint.

Determinism: the same config and plan produce bit-identical traces,
failure records, and metrics on every run.  Every restore also checks
itself: each rebuilt address space must reproduce the state digest the
recovered checkpoint recorded at capture
(:func:`~repro.checkpoint.recovery.apply_chain` raises
:class:`~repro.errors.RecoveryError` otherwise) -- which, because faults
have no effect before they fire, is exactly the state of a failure-free
run at the same logical time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.checkpoint.coordinated import GlobalCheckpoint
from repro.checkpoint.recovery import estimated_restore_time
from repro.checkpoint.snapshot import Checkpoint
from repro.cluster.experiment import ExperimentConfig, _assemble
from repro.errors import FaultPlanError, RecoveryError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.instrument import TraceLog
from repro.metrics.failures import (CorruptionDetected, FailureRecord,
                                    FaultRunMetrics)
from repro.obs.publish import publish_run
from repro.sim import Engine
from repro.storage import ChainVerification, CheckpointStore
from repro.storage.integrity import prefix_verification


@dataclass
class LifeResult:
    """One life of the job: launch (or restart) until completion or death."""

    index: int
    t_start: float
    t_end: float
    logs: dict[int, TraceLog]
    store: CheckpointStore
    committed: list[GlobalCheckpoint]
    iterations: int = 0
    #: when rank 0 began its first iteration; None if it never did
    iteration_start: Optional[float] = None
    #: (life index, seq) this life was restored from; None for a fresh start
    restored_from: Optional[tuple[int, int]] = None
    #: absolute useful progress already banked when this life started
    progress_before: float = 0.0
    write_failures: list[tuple[int, int]] = field(default_factory=list)
    #: checkpoint-transport snapshot of this life (TransportStats)
    transport_stats: Optional[object] = None


@dataclass
class FaultRunResult:
    """Everything one fault-injection experiment produced."""

    config: ExperimentConfig
    plan: FaultPlan
    lives: list[LifeResult]
    failures: list[FailureRecord]
    #: chains that failed integrity verification during recovery scans
    corruptions: list[CorruptionDetected] = field(default_factory=list)
    final_time: float = 0.0

    @property
    def metrics(self) -> FaultRunMetrics:
        return FaultRunMetrics.from_records(self.failures,
                                            wall_time=self.final_time,
                                            corruptions=self.corruptions)

    def mean_commit_latency(self) -> Optional[float]:
        """Measured checkpoint cost C: mean request-to-commit latency
        over every committed global checkpoint, all lives."""
        lats = [gc.commit_latency
                for life in self.lives for gc in life.committed]
        if not lats:
            return None
        return sum(lats) / len(lats)


class FailureRecoveryDriver:
    """Drives one configuration through a fault plan, life by life."""

    def __init__(self, config: ExperimentConfig, plan: FaultPlan, *,
                 detection_latency: float = 0.25,
                 read_bandwidth: Optional[float] = None,
                 verify_integrity: bool = True,
                 integrity_bandwidth: Optional[float] = None,
                 max_failures: int = 1000,
                 obs=None):
        from repro.obs import NULL_OBS
        plan.validate_for(config.nranks, config.ckpt_transport)
        if detection_latency < 0:
            raise FaultPlanError("detection latency must be >= 0")
        if max_failures < 1:
            raise FaultPlanError("max_failures must be >= 1")
        #: its ckpt_* fields set every life's checkpointing (a None
        #: transport is "estimate", the seed's flat-duration writes)
        self.config = config
        self.plan = plan
        self.detection_latency = detection_latency
        self.read_bandwidth = read_bandwidth
        #: verify chain integrity before trusting a committed checkpoint
        #: (off reproduces the pre-integrity driver: corruption restores
        #: garbage and the restore's own state-digest check catches it)
        self.verify_integrity = verify_integrity
        #: when set, charge digest recomputation at this bandwidth (B/s)
        #: into restore time; None keeps restore costs bit-identical to
        #: integrity-unaware runs
        self.integrity_bandwidth = integrity_bandwidth
        self.max_failures = max_failures
        #: observability sink threaded into every life's engine
        self.obs = NULL_OBS if obs is None else obs
        # the same duration resolution as run_experiment, so an empty
        # plan reproduces its traces byte for byte
        self.total_duration = config.duration

    # -- public -------------------------------------------------------------

    def run(self) -> FaultRunResult:
        """Run lives until the job completes; see the module docstring."""
        result = FaultRunResult(config=self.config, plan=self.plan,
                                lives=[], failures=[])
        t_now = 0.0
        progress_before = 0.0
        decision: Optional[tuple[int, int, dict]] = None
        #: result.corruptions before the latest recovery scan
        self._corruptions_seen = 0

        while True:
            life, injector, complete = self._run_life(
                result, t_now, progress_before, decision)
            result.lives.append(life)
            if complete:
                result.final_time = life.t_end
                return result
            if len(result.failures) >= self.max_failures:
                raise RecoveryError(
                    f"gave up after {self.max_failures} failures")
            record, t_now, progress_before, decision = \
                self._recover(result, life, injector)
            result.failures.append(record)

    # -- one life -----------------------------------------------------------

    def _run_life(self, result: FaultRunResult, t_start: float,
                  progress_before: float,
                  decision: Optional[tuple[int, int, dict]]
                  ) -> tuple[LifeResult, FaultInjector, bool]:
        """Run one life; ``decision`` is the recovery it resumes from
        (see :meth:`_recovery_target`), None for a fresh start.  Returns
        the life, its injector (which :meth:`_recover` reads the failure
        from) and whether the job completed."""
        config = self.config
        restored_from = None if decision is None else decision[:2]
        engine = Engine(start_time=t_start, obs=self.obs)
        index = len(result.lives)
        built = _assemble(
            config, engine, max(0.0, self.total_duration - progress_before),
            None if decision is None else decision[2], restorable=True)
        job, library, ckpt = built.job, built.library, built.ckpt

        life = LifeResult(index=index, t_start=t_start, t_end=t_start,
                          logs={}, store=ckpt.store, committed=[],
                          restored_from=restored_from,
                          progress_before=progress_before)
        if self.obs.enabled and self.obs.progress is not None:
            self.obs.progress.on_life(index, t_start)
        injector = FaultInjector(job, self.plan, disk_resolver=ckpt.disk,
                                 store=ckpt.store, stop_on_fatal=True)
        injector.arm()
        finished: list[int] = []

        def on_fini(ctx):
            finished.append(ctx.rank)
            if len(finished) == config.nranks:
                # job done: faults on an idle cluster are not failures,
                # and must not stretch the clock while the queue drains
                injector.disarm()

        job.fini_hooks.append(on_fini)

        procs = built.launch()
        self._drive(engine, injector, procs)
        for p in procs:
            if p.exception is not None:
                raise p.exception

        life.t_end = engine.now
        life.logs = library.all_records()
        life.committed = ckpt.committed()
        life.write_failures = list(ckpt.write_failures)
        life.transport_stats = ckpt.transport_stats()
        if built.app.contexts:
            rc0 = built.app.contexts[0]
            life.iterations = rc0.iterations
            if rc0.iteration_starts:
                life.iteration_start = rc0.iteration_starts[0]
        if self.obs.enabled:
            # this life's counts, and the recovery that started it
            publish_run(self.obs.metrics, engine=engine, job=job,
                        library=library, ckpt=ckpt, injector=injector,
                        failures=result.failures[-1:],
                        corruptions=result.corruptions[
                            self._corruptions_seen:],
                        prefix=f"sim.engine.life{index}")
            tracer = self.obs.tracer
            if tracer.enabled and tracer.wants("recovery"):
                tracer.complete(f"life{index}", "recovery", t_start,
                                life.t_end - t_start, track="lives",
                                restored_from=(None if restored_from is None
                                               else list(restored_from)),
                                committed=len(life.committed),
                                iterations=life.iterations)
        return life, injector, not self._needs_recovery(injector, procs)

    def _drive(self, engine: Engine, injector: FaultInjector,
               procs: list) -> None:
        """Run the engine to completion, treating post-completion fatal
        faults (the job already finished; the 'cluster' is idle) as
        no-ops rather than failures."""
        for _ in range(len(self.plan) + 2):
            engine.run(detect_deadlock=True)
            if any(p.exception is not None for p in procs):
                return      # _run_life re-raises the body's exception
            if engine.pending_events() == 0:
                return
            if self._needs_recovery(injector, procs):
                return
        raise RecoveryError("engine stopped repeatedly without progress")

    @staticmethod
    def _needs_recovery(injector: FaultInjector, procs: list) -> bool:
        """A fatal fault landed while the job still had work in flight."""
        return injector.fatal_delivered and any(p.alive for p in procs)

    # -- recovery -----------------------------------------------------------

    def _recover(self, result: FaultRunResult, life: LifeResult,
                 injector: FaultInjector):
        """Account one failure and decide where the next life starts."""
        t_fail = injector.delivered[-1].time if injector.delivered else life.t_end
        kind = next((e.kind.value for e in reversed(injector.delivered)
                     if e.kind.fatal), "crash")
        victims = tuple(injector.dead_ranks)
        detected_at = t_fail + self.detection_latency
        self._corruptions_seen = len(result.corruptions)

        target = self._recovery_target(result, detected_at)
        progress_at_fail = self._progress_at(life, t_fail)
        if target is None:
            # nothing committed anywhere (or nothing that verifies):
            # start over from scratch with a fresh full checkpoint
            restore_time = 0.0
            recovered_seq = None
            recovery_life = None
            progress_restored = 0.0
        else:
            recovery_life, recovered_seq, chains = target
            bw = (self.read_bandwidth if self.read_bandwidth is not None
                  else self.config.cluster.disk.bandwidth)
            restore_time = max(
                estimated_restore_time(
                    chain, bw, verify_bandwidth=self.integrity_bandwidth)
                for chain in chains.values())
            served = result.lives[recovery_life]
            progress_restored = self._progress_at(
                served, next(gc.requested_at for gc in served.committed
                             if gc.seq == recovered_seq))
        lost_work = max(0.0, progress_at_fail - progress_restored)
        downtime = self.detection_latency + restore_time
        restarted_at = t_fail + downtime
        record = FailureRecord(
            time=t_fail, kind=kind, victims=victims,
            detected_at=detected_at, recovered_seq=recovered_seq,
            recovery_life=recovery_life, lost_work=lost_work,
            restore_time=restore_time, downtime=downtime,
            restarted_at=restarted_at)
        tracer = self.obs.tracer
        if tracer.enabled and tracer.wants("recovery"):
            tracer.complete("recovery", "recovery", t_fail, downtime,
                            track="lives", kind=kind,
                            victims=list(victims), seq=recovered_seq,
                            lost_work=lost_work,
                            restore_time=restore_time)
        return record, restarted_at, progress_restored, target

    def _recovery_target(self, result: FaultRunResult, detected_at: float
                         ) -> Optional[tuple[int, int,
                                             dict[int, list[Checkpoint]]]]:
        """Newest committed global checkpoint across all lives that
        passes integrity verification, as ``(life, seq, chains)``:
        ``chains[rank]`` holds the checkpoints that rank restores from,
        the payloads of exactly the pieces verified here.

        With ``verify_integrity`` every candidate is scanned rank by
        rank before recovery trusts it; a corrupted, truncated, or
        dropped piece rejects the whole committed sequence (a
        :class:`~repro.metrics.failures.CorruptionDetected` record per
        bad chain) and the search walks back to the next older one --
        across lives if need be.  Nothing intact anywhere means a
        from-scratch restart, never a restore from corrupt data.
        Without it the newest committed sequence is taken, its chains
        as the store holds them.
        """
        for life in reversed(result.lives):
            # (rank, full head seq) -> verification of the newest
            # candidate whose chain that full heads
            heads: dict[tuple[int, Optional[int]], ChainVerification] = {}
            for seq in reversed(life.store.committed_sequences()):
                chains = {rank: life.store.chain(rank, upto_seq=seq)
                          for rank in range(self.config.nranks)}
                if (not self.verify_integrity
                        or self._candidate_intact(result, life, seq, chains,
                                                  detected_at, heads)):
                    return (life.index, seq,
                            {rank: [p.payload for p in pieces]
                             for rank, pieces in chains.items()})
        return None

    def _candidate_intact(self, result: FaultRunResult, life: LifeResult,
                          seq: int, chains: dict[int, list],
                          detected_at: float,
                          heads: dict[tuple[int, Optional[int]],
                                      ChainVerification]) -> bool:
        """Verify every rank's stored chain up to ``seq`` in one life,
        recording each broken chain.

        Candidates are tried newest first, so each ``(rank, full head)``
        chain is verified once, at the newest candidate it serves; an
        older candidate's outcome is the prefix of that verification
        (:func:`~repro.storage.integrity.prefix_verification`)."""
        intact = True
        for rank, chain in chains.items():
            key = (rank, chain[0].seq if chain else None)
            newest = heads.get(key)
            if newest is None:
                outcome = heads[key] = life.store.verify_chain(
                    rank, upto_seq=seq, require_seq=seq)
            else:
                outcome = prefix_verification(newest, seq)
            if outcome.intact:
                continue
            intact = False
            bad = outcome.first_bad
            result.corruptions.append(CorruptionDetected(
                detected_at=detected_at, life=life.index, rank=rank,
                seq=bad.seq, reason=bad.reason, rejected_seq=seq))
        return intact

    @staticmethod
    def _progress_at(life: LifeResult, t: float) -> float:
        """Absolute useful progress a life had reached at ``t``: what it
        inherited at restore, plus iteration time since."""
        if life.iteration_start is None:
            return life.progress_before
        return life.progress_before + max(0.0, t - life.iteration_start)


def run_with_failures(config: ExperimentConfig,
                      plan: FaultPlan, *,
                      interval_slices: Optional[int] = None,
                      full_every: Optional[int] = None,
                      detection_latency: float = 0.25,
                      read_bandwidth: Optional[float] = None,
                      verify_integrity: bool = True,
                      integrity_bandwidth: Optional[float] = None,
                      max_failures: int = 1000,
                      ckpt_transport: Optional[str] = None,
                      obs=None) -> FaultRunResult:
    """Run one experiment under a fault plan; see
    :class:`FailureRecoveryDriver`.

    The config's ``ckpt_*`` fields set the checkpointing;
    ``interval_slices``, ``full_every`` and ``ckpt_transport``, when
    given, replace them.

    Same config + same plan ⇒ identical traces, failure records, and
    metrics; an empty plan reproduces
    :func:`~repro.cluster.experiment.run_experiment`'s traces byte for
    byte.
    """
    changes = {field_name: value for field_name, value in (
        ("ckpt_interval_slices", interval_slices),
        ("ckpt_full_every", full_every),
        ("ckpt_transport", ckpt_transport)) if value is not None}
    if changes:
        config = config.scaled(**changes)
    return FailureRecoveryDriver(
        config, plan, detection_latency=detection_latency,
        read_bandwidth=read_bandwidth, verify_integrity=verify_integrity,
        integrity_bandwidth=integrity_bandwidth,
        max_failures=max_failures, obs=obs).run()

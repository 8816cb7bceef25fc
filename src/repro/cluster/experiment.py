"""The experiment harness: one call from configuration to results.

Every benchmark and example drives the system through
:func:`run_experiment`: build the cluster, install the instrumentation
library, launch the calibrated application, run the virtual clock, and
return per-rank traces plus the derived statistics the paper reports.
Sweeps over the checkpoint timeslice (Figs 2-4) and the processor count
(Fig 5) are one-liners on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from repro.apps.base import ScientificApplication
from repro.apps.registry import default_run_duration, paper_spec
from repro.apps.spec import WorkloadSpec
from repro.cluster.node import ClusterSpec, PAPER_CLUSTER
from repro.errors import ConfigurationError
from repro.instrument import InstrumentationLibrary, TraceLog, TrackerConfig
from repro.mem import Layout
from repro.metrics.bandwidth import IBStats, ib_stats, iws_ratio
from repro.metrics.stats import FootprintStats, footprint_stats
from repro.mpi import MPIJob
from repro.obs.publish import publish_run
from repro.sim import Engine
from repro.units import DEFAULT_PAGE_SIZE, MiB


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one run needs."""

    spec: WorkloadSpec
    nranks: int = 4
    timeslice: float = 1.0
    run_duration: Optional[float] = None   #: None -> app default
    charge_overhead: bool = False
    page_size: int = DEFAULT_PAGE_SIZE
    procs_per_node: int = 2
    intercept_receives: bool = True
    protect_on_map: bool = True
    fault_cost: float = 15e-6
    reprotect_cost_per_page: float = 0.2e-6
    cluster: ClusterSpec = PAPER_CLUSTER
    #: checkpoint data path: None (no checkpoint engine, the seed
    #: behaviour; a fault run, which always checkpoints, reads it as
    #: "estimate"), "estimate", "network", or "diskless"
    ckpt_transport: Optional[str] = None
    #: a capture every this many timeslices, a full one every this
    #: many captures
    ckpt_interval_slices: int = 2
    ckpt_full_every: int = 4
    #: delta unit granularity (bytes): None (or the page size) saves
    #: whole dirty pages, a smaller divisor of the page size saves
    #: sub-page differential blocks
    ckpt_block_size: Optional[int] = None

    def __post_init__(self) -> None:
        if self.nranks < 1:
            raise ConfigurationError("need at least one rank")
        if self.timeslice <= 0:
            raise ConfigurationError("timeslice must be positive")
        if self.run_duration is not None and self.run_duration <= 0:
            raise ConfigurationError("run_duration must be positive")
        if self.ckpt_transport is not None:
            from repro.checkpoint.transport import TRANSPORT_MODES
            if self.ckpt_transport not in TRANSPORT_MODES:
                raise ConfigurationError(
                    f"unknown checkpoint transport "
                    f"{self.ckpt_transport!r}; expected one of "
                    f"{TRANSPORT_MODES}")
        if self.ckpt_interval_slices < 1:
            raise ConfigurationError("ckpt_interval_slices must be >= 1")
        if self.ckpt_full_every < 1:
            raise ConfigurationError("ckpt_full_every must be >= 1")
        block = self.ckpt_block_size
        if block is not None and (block < 1 or self.page_size % block):
            raise ConfigurationError(
                f"ckpt_block_size {block} must be >= 1 and divide the "
                f"page size {self.page_size}")

    @property
    def duration(self) -> float:
        """Main-loop run time: ``run_duration`` (the app default when
        unset), floored at five timeslices so a measurement always sees
        several timeslices after the initialization burst."""
        duration = (self.run_duration if self.run_duration is not None
                    else default_run_duration(self.spec))
        return max(duration, 5.0 * self.timeslice)

    def scaled(self, **changes) -> "ExperimentConfig":
        """A copy with some fields replaced (parameter sweeps)."""
        return replace(self, **changes)


@dataclass
class ExperimentResult:
    """Traces and derived statistics of one run."""

    config: ExperimentConfig
    logs: dict[int, TraceLog]
    init_end_time: float          #: when initialization finished (rank 0)
    iterations: int               #: completed main iterations (rank 0)
    iteration_starts: list[float]
    final_time: float
    #: live simulation objects; None on results reloaded from the
    #: persistent cache or shipped back from a pool worker (the derived
    #: statistics above need only the traces and metadata)
    app: Optional[ScientificApplication] = field(repr=False, default=None)
    library: Optional[InstrumentationLibrary] = field(repr=False, default=None)
    job: Optional[MPIJob] = field(repr=False, default=None)
    #: checkpoint-transport accounting when ``config.ckpt_transport``
    #: was set (a picklable TransportStats snapshot); None otherwise
    transport_stats: Optional[object] = None
    ckpt_commits: int = 0
    #: the live checkpoint engine (dropped by :meth:`detached`)
    ckpt: Optional[object] = field(repr=False, default=None)

    # -- derived statistics (rank 0 unless stated; bulk synchrony makes
    # -- one process representative, section 6.1) -------------------------------

    def log(self, rank: int = 0) -> TraceLog:
        """One rank's timeslice trace."""
        return self.logs[rank]

    def ib(self, rank: int = 0) -> IBStats:
        """IB statistics excluding the initialization burst."""
        return ib_stats(self.logs[rank], skip_until=self.init_end_time)

    def footprint(self, rank: int = 0) -> FootprintStats:
        """Footprint statistics (Table 2's columns) for one rank."""
        return footprint_stats(self.logs[rank],
                               skip_until=self.init_end_time)

    def iws_ratio(self, rank: int = 0) -> float:
        """Average IWS/footprint ratio (the Fig 4 quantity)."""
        return iws_ratio(self.logs[rank], skip_until=self.init_end_time)

    def measured_period(self, rank: int = 0) -> float:
        """Mean observed iteration period."""
        starts = self.iteration_starts
        if len(starts) < 2:
            raise ConfigurationError("fewer than two iterations observed")
        return (starts[-1] - starts[0]) / (len(starts) - 1)

    def slowdown_vs(self, baseline: "ExperimentResult") -> float:
        """Relative runtime stretch against an uninstrumented baseline
        run of the same workload (section 6.5's intrusiveness)."""
        base = baseline.measured_period()
        return self.measured_period() / base - 1.0

    def detached(self) -> "ExperimentResult":
        """A copy without the live simulation objects.

        Detached results are picklable (pool workers ship them between
        processes) and serializable to the persistent cache; every
        derived statistic still works."""
        return replace(self, app=None, library=None, job=None, ckpt=None)

    def measured_feasibility(self, envelope=None):
        """The *measured* feasibility verdict for this run, or None when
        the run had no measuring checkpoint transport (see
        :meth:`repro.feasibility.FeasibilityAnalyzer.assess_measured`)."""
        stats = self.transport_stats
        if stats is None or not stats.measured:
            return None
        from repro.feasibility import FeasibilityAnalyzer
        analyzer = (FeasibilityAnalyzer(envelope) if envelope is not None
                    else FeasibilityAnalyzer())
        return analyzer.assess_measured(self.config.spec.name, stats,
                                        self.config.timeslice)


@dataclass
class _AssembledJob:
    """A job built from a config and ready to launch."""

    app: ScientificApplication
    job: MPIJob
    library: Optional[InstrumentationLibrary]
    ckpt: Optional[object]
    #: starts every rank (fresh bodies, or resume bodies on a restart);
    #: returns the launched processes
    launch: Callable[[], list]


def _assemble(config: ExperimentConfig, engine: Engine, run_duration: float,
              chains: Optional[dict] = None, *, instrument: bool = True,
              restorable: bool = False) -> _AssembledJob:
    """Build (but do not launch) the job ``config`` describes on
    ``engine``: the one construction behind :func:`run_experiment`,
    :func:`run_uninstrumented` and every life of a fault run.

    ``chains`` (one verified recovery chain per rank) restarts the job
    from them through :class:`~repro.checkpoint.RestartCoordinator`.
    ``instrument`` False leaves out the instrumentation library and with
    it any checkpointing.  ``restorable`` runs (fault-run lives) always
    checkpoint -- a None transport is "estimate" -- and keep the payloads
    a later restore reads.  Diskless chains are garbage-collected as each
    full checkpoint commits, since buddy memory is bounded."""
    layout = Layout(page_size=config.page_size)
    app = ScientificApplication(config.spec, run_duration=run_duration,
                                charge_overhead=config.charge_overhead,
                                layout=layout)
    if chains is None:
        job = MPIJob(engine, config.nranks, layout=layout,
                     procs_per_node=config.procs_per_node,
                     process_factory=app.process_factory(engine),
                     name=config.spec.name)
        launch = lambda: job.launch(app.make_body())
    else:
        from repro.checkpoint import RestartCoordinator
        coordinator = RestartCoordinator(app, chains)
        job = coordinator.restart(engine, procs_per_node=config.procs_per_node,
                                  name=config.spec.name)
        launch = lambda: coordinator.launch(job)
    library = ckpt = None
    if instrument:
        library = InstrumentationLibrary(
            TrackerConfig(timeslice=config.timeslice,
                          fault_cost=config.fault_cost,
                          reprotect_cost_per_page=config.reprotect_cost_per_page,
                          protect_on_map=config.protect_on_map,
                          intercept_receives=config.intercept_receives),
            app_name=config.spec.name).install(job)
        if not config.intercept_receives:
            for nic in job.nics:
                nic.strict_dma = False
        if restorable or config.ckpt_transport is not None:
            from repro.checkpoint import CheckpointEngine
            ckpt = CheckpointEngine(
                job, library, interval_slices=config.ckpt_interval_slices,
                full_every=config.ckpt_full_every,
                keep_payloads=restorable,
                gc=(config.ckpt_transport == "diskless"),
                transport=config.ckpt_transport,
                block_size=config.ckpt_block_size)
    return _AssembledJob(app=app, job=job, library=library, ckpt=ckpt,
                         launch=launch)


def run_experiment(config: ExperimentConfig,
                   obs=None) -> ExperimentResult:
    """Run one instrumented experiment on the simulated cluster.

    ``obs`` (a :class:`repro.obs.Observability`) threads a tracer,
    metrics registry, and progress feed through the engine and every
    component hanging off it; ``None`` (the default) is the zero-cost
    disabled path.

    The engine batches same-instant work: co-phased timer expiries
    through its :class:`~repro.sim.timers.TimerHub`, wake-ups and
    deliveries through :meth:`~repro.sim.Engine.schedule_coalesced`.
    The differential tests swap in the per-item reference engine of
    ``tests/sim/reference.py`` and require the same simulation."""
    return _run_job(config, Engine(obs=obs))


def run_uninstrumented(config: ExperimentConfig) -> ExperimentResult:
    """The same run without any instrumentation (intrusiveness baseline)."""
    return _run_job(config, Engine(), instrument=False)


def _run_job(config: ExperimentConfig, engine: Engine,
             instrument: bool = True) -> ExperimentResult:
    """Assemble, launch and run one job to completion."""
    built = _assemble(config, engine, config.duration, instrument=instrument)
    procs = built.launch()
    engine.run(detect_deadlock=True)
    for p in procs:
        if p.exception is not None:
            raise p.exception
    library, ckpt = built.library, built.ckpt
    if engine.obs.enabled:
        publish_run(engine.obs.metrics, engine=engine, job=built.job,
                    library=library, ckpt=ckpt)

    rc0 = built.app.contexts[0]
    return ExperimentResult(
        config=config,
        logs=({} if library is None else library.all_records()),
        init_end_time=rc0.init_end_time,
        iterations=rc0.iterations,
        iteration_starts=list(rc0.iteration_starts),
        final_time=engine.now,
        app=built.app,
        library=library,
        job=built.job,
        transport_stats=(None if ckpt is None else ckpt.transport_stats()),
        ckpt_commits=(0 if ckpt is None else len(ckpt.committed())),
        ckpt=ckpt,
    )


def sweep_timeslices(config: ExperimentConfig,
                     timeslices: list[float], *, jobs: int = 1,
                     cache=None, obs=None) -> dict[float, ExperimentResult]:
    """One run per timeslice (the sweep behind Figs 2-4).  Re-running per
    timeslice matters: page reuse within longer slices cannot be derived
    from a finer-grained run, because the dirty set resets at each alarm.

    ``jobs`` fans the independent runs across a process pool; ``cache``
    (a :class:`repro.exec.ResultCache`) makes repeat sweeps near-instant.
    Results are identical at any job count (see DESIGN.md)."""
    if not timeslices:
        raise ConfigurationError("empty timeslice sweep")
    return _run_sweep(config, "timeslice", timeslices, jobs=jobs,
                      cache=cache, obs=obs)


def sweep_processors(config: ExperimentConfig,
                     nranks_list: list[int], *, jobs: int = 1,
                     cache=None, obs=None) -> dict[int, ExperimentResult]:
    """One run per processor count under weak scaling (Fig 5): the
    per-process footprint is fixed; only the rank count changes."""
    if not nranks_list:
        raise ConfigurationError("empty processor sweep")
    return _run_sweep(config, "nranks", nranks_list, jobs=jobs,
                      cache=cache, obs=obs)


def _run_sweep(config: ExperimentConfig, field_name: str, values: list,
               *, jobs: int, cache, obs=None) -> dict:
    """Fan one-field sweeps through the executor, deduplicating repeated
    values (matching the dict semantics the serial loop always had)."""
    from repro.exec import SweepExecutor  # deferred: exec imports us

    unique = list(dict.fromkeys(values))
    configs = [config.scaled(**{field_name: v}) for v in unique]
    results = SweepExecutor(jobs=jobs, cache=cache,
                            obs=obs).run_many(configs)
    return dict(zip(unique, results))


def run_with_failures(config: ExperimentConfig, plan, **kwargs):
    """Run one experiment under a fault plan, recovering from every
    fatal fault via the checkpoint chain; see
    :func:`repro.faults.driver.run_with_failures` for the knobs."""
    from repro.faults.driver import run_with_failures as _run  # deferred: faults imports us

    return _run(config, plan, **kwargs)


def paper_config(name: str, **overrides) -> ExperimentConfig:
    """An :class:`ExperimentConfig` for one of the paper's applications."""
    return ExperimentConfig(spec=paper_spec(name), **overrides)

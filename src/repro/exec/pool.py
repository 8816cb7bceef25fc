"""Process-pool sweep executor.

The paper's results are parameter sweeps -- IB versus timeslice (Figs
2-4), weak scaling over processor counts (Fig 5) -- and every point is
an *independent* simulation.  :class:`SweepExecutor` fans those runs
across a process pool and returns results in submission order, so a
parallel sweep is indistinguishable from a serial one: each run owns a
private :class:`~repro.sim.Engine` with its own virtual clock and seeded
state, and nothing is shared between runs, so per-run results are
bit-identical at any job count.

Workers return *detached* results (traces + derived metadata, no live
simulation objects) because generators and engines do not survive
pickling -- and because the derived statistics are all the sweep
consumers need.  With a :class:`~repro.exec.cache.ResultCache` attached,
hits skip simulation entirely and misses are persisted on completion.

Three things keep the parallel path ahead of serial even on small
sweeps:

- the fork-pool is *warm*: one pool per process, reused across
  ``run_many`` calls (pool creation used to cost more than a short
  sweep's entire win);
- cache probes overlap execution: each miss is submitted to the pool
  the moment its probe fails, so workers simulate config *i* while the
  parent is still probing config *i+1*;
- cache writes happen *in the workers* (each worker re-opens the cache
  by its root path and persists its own result), so the npz
  serialization of one run overlaps the simulation of the next instead
  of serializing in the parent after the pool drains.
"""

from __future__ import annotations

import atexit
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Optional, Sequence

from repro.errors import ConfigurationError
from repro.exec.cache import ResultCache


def _run_and_store(config, cache_root: Optional[str]):
    """Pool worker: run one experiment and persist it to the cache (by
    root path -- cache handles are not shared across processes).  Puts
    are atomic tmp+rename, and distinct configs map to distinct keys,
    so concurrent workers never collide."""
    from repro.cluster.experiment import run_experiment

    result = run_experiment(config).detached()
    if cache_root is not None:
        ResultCache(cache_root).put(config, result)
    return result


def _pool_context():
    """Prefer fork (cheap, numpy already mapped); fall back to the
    platform default where fork is unavailable (Windows, some macOS)."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return None


#: the process-wide warm pool: (executor, max_workers)
_warm_pool: Optional[ProcessPoolExecutor] = None
_warm_workers = 0


def _get_pool(workers: int) -> ProcessPoolExecutor:
    """The warm pool, recreated only when the worker count changes.
    Workers are forked lazily on first submit, so an idle pool costs
    nothing; a reused one skips the fork+import tax entirely."""
    global _warm_pool, _warm_workers
    if _warm_pool is not None and _warm_workers != workers:
        _warm_pool.shutdown(wait=True)
        _warm_pool = None
    if _warm_pool is None:
        _warm_pool = ProcessPoolExecutor(max_workers=workers,
                                         mp_context=_pool_context())
        _warm_workers = workers
    return _warm_pool


def shutdown_pool() -> None:
    """Tear down the warm pool (tests, embedders, interpreter exit)."""
    global _warm_pool, _warm_workers
    if _warm_pool is not None:
        _warm_pool.shutdown(wait=True)
        _warm_pool = None
        _warm_workers = 0


atexit.register(shutdown_pool)


class SweepExecutor:
    """Run independent experiment configs, optionally in parallel and
    through a persistent cache.

    Parameters
    ----------
    jobs:
        Worker processes.  1 runs in-process (and returns *live* results
        with app/library/job attached, exactly like calling
        :func:`~repro.cluster.experiment.run_experiment` in a loop).
    cache:
        Optional :class:`ResultCache`; hits are returned without
        simulating, misses are stored after the run (by the worker
        itself on the parallel path).
    obs:
        Optional :class:`~repro.obs.Observability`; serial runs (jobs=1)
        thread it into each experiment's engine and time every run via
        :func:`~repro.obs.probe`.  Pool workers run without it (tracers
        do not cross process boundaries), but cache and sweep-level
        counters are still recorded.
    """

    def __init__(self, jobs: int = 1, cache: Optional[ResultCache] = None,
                 obs=None):
        if jobs < 1:
            raise ConfigurationError(f"need at least one job, got {jobs}")
        self.jobs = jobs
        self.cache = cache
        self.obs = obs

    def run_many(self, configs: Sequence) -> list:
        """One :class:`ExperimentResult` per config, in submission order."""
        from repro.obs import probe

        obs = self.obs if (self.obs is not None and self.obs.enabled) else None
        configs = list(configs)
        if self.jobs > 1 and len(configs) > 1:
            results, nmisses = self._run_pooled(configs, obs, probe)
        else:
            results, nmisses = self._run_serial(configs, obs, probe)
        if obs is not None:
            m = obs.metrics
            m.counter("exec.runs").inc(nmisses)
            m.counter("exec.cache.hits").inc(len(configs) - nmisses)
            m.counter("exec.cache.misses").inc(nmisses)
            if self.cache is not None:
                m.gauge("exec.cache.hits_total").set(self.cache.hits)
                m.gauge("exec.cache.misses_total").set(self.cache.misses)
        return results

    def _run_serial(self, configs, obs, probe):
        from repro.cluster.experiment import run_experiment

        results: list = [None] * len(configs)
        miss_idx: list[int] = []
        for i, config in enumerate(configs):
            cached = self.cache.get(config) if self.cache is not None else None
            if cached is not None:
                results[i] = cached
                if obs is not None and obs.progress is not None:
                    obs.progress.on_run(i + 1, len(configs), label="cached")
            else:
                miss_idx.append(i)
        for n, i in enumerate(miss_idx):
            with probe(obs, "exec.run"):
                results[i] = run_experiment(configs[i], obs=obs)
            if self.cache is not None:
                self.cache.put(configs[i], results[i])
            if obs is not None and obs.progress is not None:
                obs.progress.on_run(n + 1, len(miss_idx), label="run")
        return results, len(miss_idx)

    def _run_pooled(self, configs, obs, probe):
        pool = _get_pool(self.jobs)
        cache_root = str(self.cache.root) if self.cache is not None else None
        results: list = [None] * len(configs)
        futures: dict[int, object] = {}
        try:
            with probe(obs, "exec.pool_sweep"):
                # probe and submit interleaved: a worker is already
                # simulating the first miss while later probes run
                for i, config in enumerate(configs):
                    cached = (self.cache.get(config)
                              if self.cache is not None else None)
                    if cached is not None:
                        results[i] = cached
                        if obs is not None and obs.progress is not None:
                            obs.progress.on_run(i + 1, len(configs),
                                                label="cached")
                    else:
                        futures[i] = pool.submit(_run_and_store, config,
                                                 cache_root)
                for n, i in enumerate(futures):
                    results[i] = futures[i].result()
                    if obs is not None and obs.progress is not None:
                        obs.progress.on_run(n + 1, len(futures),
                                            label="pool run")
        except BrokenProcessPool:
            # a dead worker poisons the warm pool; drop it so the next
            # sweep starts from a fresh one
            shutdown_pool()
            raise
        return results, len(futures)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SweepExecutor jobs={self.jobs} cache={self.cache!r}>"

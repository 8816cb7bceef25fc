"""The benchmark's four workloads, each run once per process.

A workload function takes the seed, a scratch directory inside the
checkout and the run's :class:`Marks`, runs the simulator through its
public entry points, checks what it can check on its own, and returns an
:class:`Outcome`: the output digest (compared with the recorded
reference by the parent), the exact work counts (compared across the
processes of one run), and the operations attempted and failed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from faultplan import (CRASHES, FLIPPED_SEQ, FULL_EVERY, RECOVERED_SEQ,
                       crash_plan)

#: Fig-2 panels and timeslices (the paper's sweep)
FIG2_PANELS = ("sage-1000MB", "sweep3d", "bt", "sp", "ft", "lu")
FIG2_TIMESLICES = (1.0, 2.0, 5.0, 10.0, 15.0, 20.0)
FIG2_NRANKS = 8
FIG2_JOBS = 2
#: host seconds of each Fig-2 point (8 ranks, one CPU), measured when the
#: workload was sized: sp and bt grow with the timeslice, the rest are
#: small.  Only their order matters (see :func:`fig2_order`).
FIG2_COST = {
    "sage-1000MB": (0.14, 0.08, 0.06, 0.05, 0.05, 0.04),
    "sweep3d": (0.04, 0.04, 0.04, 0.06, 0.08, 0.10),
    "bt": (0.30, 0.25, 0.23, 0.46, 0.61, 0.94),
    "sp": (0.79, 0.75, 0.71, 1.12, 1.56, 2.18),
    "ft": (0.08, 0.09, 0.07, 0.12, 0.18, 0.23),
    "lu": (0.13, 0.14, 0.14, 0.22, 0.30, 0.41),
}


def clock() -> float:
    """System-wide monotonic seconds, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Marks:
    """Set-up boundary and engine registry of one run, taken with a
    wrapper on ``Engine.run`` that costs one call per ``run`` (a handful
    per workload), so untraced runs carry it too."""

    def __init__(self) -> None:
        #: when the first simulated event was about to be dispatched
        self.first_event: float | None = None
        self.engines: dict[int, object] = {}

    def install(self) -> None:
        from repro.sim.engine import Engine

        orig = Engine.run
        marks = self

        def run(engine, *args, **kwargs):
            if marks.first_event is None:
                marks.first_event = clock()
            marks.engines[id(engine)] = engine
            return orig(engine, *args, **kwargs)

        run.__wrapped__ = orig
        run.__doc__ = orig.__doc__
        Engine.run = run

    def setup_done(self) -> None:
        """Mark the end of set-up explicitly (workloads whose events run
        in pool workers)."""
        if self.first_event is None:
            self.first_event = clock()

    def engine_counts(self) -> dict[str, int]:
        """Exact engine and timer-hub counts summed over every engine."""
        total = {"sim.events": 0, "sim.cancelled": 0, "sim.compactions": 0,
                 "sim.timer_epochs": 0}
        for engine in self.engines.values():
            stats = engine.stats()
            total["sim.events"] += stats["dispatched"]
            total["sim.cancelled"] += stats["cancelled"]
            total["sim.compactions"] += stats["compactions"]
            if engine.timer_hub is not None:
                total["sim.timer_epochs"] += engine.timer_hub.stats()["epochs"]
        return total


@dataclass
class Outcome:
    """What one run of a workload produced."""

    digest: str
    #: exact work counts; must repeat in every process of a run
    counts: dict[str, float]
    #: simulated rank-seconds completed (sum of nranks x sim seconds)
    rank_sim_s: float
    attempted: int
    failed: int = 0
    #: host times the per-layer report needs beyond the spans
    timings: dict[str, float] = field(default_factory=dict)
    #: why operations failed (printed to stderr by the parent)
    problems: list[str] = field(default_factory=list)


# -- signatures ---------------------------------------------------------------


def _hash_logs(h, logs: dict) -> None:
    """Every rank's TraceLog columns, rank by rank."""
    for rank in sorted(logs):
        rows = [dataclasses.astuple(r) for r in logs[rank].records]
        h.update(f"rank {rank} {rows!r}\n".encode())


def _log_counts(logs_list) -> dict[str, int]:
    """Exact instrumentation counts over any number of rank-log dicts."""
    slices = pages = faults = 0
    for logs in logs_list:
        for log in logs.values():
            slices += len(log)
            for r in log.records:
                pages += r.iws_pages
                faults += r.faults
    return {"instrument.timeslices": slices, "instrument.iws_pages": pages,
            "instrument.faults": faults}


def _transport_counts(stats_list) -> dict[str, float]:
    """Exact transport totals (frames, and the simulated waits the
    checkpoint traffic caused) over one or more TransportStats."""
    return {"checkpoint.frames": sum(s.frames for s in stats_list),
            "checkpoint.stall_time_s": sum(s.stall_time for s in stats_list),
            "net.contention_delay_s": sum(s.contention_delay
                                          for s in stats_list),
            "net.contended_messages": sum(s.contended_messages
                                          for s in stats_list)}


def _ledger(stats) -> str:
    """A TransportStats snapshot as canonical JSON (floats exact)."""
    return json.dumps(dataclasses.asdict(stats), sort_keys=True)


def _pieces(store) -> list[tuple]:
    return [(o.rank, o.seq, o.kind, o.nbytes, o.digest)
            for rank in range(store.nranks) for o in store.pieces(rank)]


# -- workloads ---------------------------------------------------------------


def scale_skeleton(seed: int, work: Path, marks: Marks) -> Outcome:
    """512 ranks of sage-1000MB, about two application iterations, no
    checkpoint engine: the replicated per-rank skeleton."""
    from repro.cluster.experiment import paper_config, run_experiment

    config = paper_config("sage-1000MB", nranks=512, timeslice=20.0,
                          run_duration=300.0)
    result = run_experiment(config)
    h = hashlib.sha256()
    _hash_logs(h, result.logs)
    h.update(repr((result.final_time, result.iterations)).encode())
    counts = {**marks.engine_counts(), **_log_counts([result.logs]),
              "apps.iterations": result.iterations}
    return Outcome(digest=h.hexdigest(), counts=counts,
                   rank_sim_s=config.nranks * result.final_time, attempted=1)


def ckpt_write(seed: int, work: Path, marks: Marks) -> Outcome:
    """4 ranks of sage-1000MB checkpointed every timeslice over the
    network, then archived and scanned: the write side of the checkpoint
    layers."""
    from repro.cluster.experiment import paper_config, run_experiment
    from repro.storage import archive

    config = paper_config("sage-1000MB", nranks=4, timeslice=1.0,
                          run_duration=20.0, ckpt_transport="network",
                          ckpt_interval_slices=1, ckpt_full_every=4)
    result = run_experiment(config)
    store = result.ckpt.store
    path = archive.save_store(store, work / "store.rckpt")
    report = archive.scan_store(path)
    archive_bytes = path.stat().st_size
    path.unlink()
    stats = result.transport_stats
    problems = []
    if not report.ok or len(report.pieces) != store.count():
        problems.append(f"archive scan: {report.render()}")
    h = hashlib.sha256()
    _hash_logs(h, result.logs)
    h.update(_ledger(stats).encode())
    h.update(repr(_pieces(store)).encode())
    h.update(repr(result.final_time).encode())
    counts = {**marks.engine_counts(), **_log_counts([result.logs]),
              **_transport_counts([stats]),
              "checkpoint.pieces": stats.pieces,
              "checkpoint.commits": result.ckpt_commits,
              "checkpoint.committed_bytes": sum(
                  gc.total_bytes for gc in result.ckpt.committed()),
              "storage.pieces": store.count(),
              "storage.archive_bytes": archive_bytes}
    return Outcome(digest=h.hexdigest(), counts=counts,
                   rank_sim_s=config.nranks * result.final_time,
                   attempted=1, failed=1 if problems else 0,
                   problems=problems)


def crash_recovery(seed: int, work: Path, marks: Marks) -> Outcome:
    """16 ranks of sage-100MB under a seeded plan of crashes, each after
    a silent corruption of the chain it would recover from: the read
    side of the checkpoint layers."""
    from repro.cluster.experiment import paper_config, run_with_failures

    config = paper_config("sage-100MB", nranks=16, timeslice=0.5,
                          run_duration=120.0)
    plan = crash_plan(seed, config.nranks)
    result = run_with_failures(config, plan, interval_slices=2,
                               full_every=FULL_EVERY,
                               ckpt_transport="network")
    problems = []
    if len(result.failures) != CRASHES:
        problems.append(f"{len(result.failures)} crash(es), "
                        f"expected {CRASHES}")
    for i, failure in enumerate(result.failures):
        flagged = {c.seq for c in result.corruptions if c.life == i}
        if (failure.recovery_life != i
                or failure.recovered_seq != RECOVERED_SEQ
                or flagged != {FLIPPED_SEQ}):
            problems.append(
                f"recovery {i}: restored life {failure.recovery_life} seq "
                f"{failure.recovered_seq}, corruption at {sorted(flagged)}; "
                f"expected life {i} seq {RECOVERED_SEQ} after rejecting "
                f"seq {FLIPPED_SEQ}")
    h = hashlib.sha256()
    for life in result.lives:
        _hash_logs(h, life.logs)
        h.update(_ledger(life.transport_stats).encode())
        h.update(repr(_pieces(life.store)).encode())
    h.update(repr([dataclasses.astuple(f) for f in result.failures]).encode())
    h.update(repr([dataclasses.astuple(c)
                   for c in result.corruptions]).encode())
    h.update(repr(result.final_time).encode())
    counts = {**marks.engine_counts(),
              **_log_counts([life.logs for life in result.lives]),
              **_transport_counts([life.transport_stats
                                   for life in result.lives]),
              "checkpoint.commits": sum(len(life.committed)
                                        for life in result.lives),
              "checkpoint.committed_bytes": sum(
                  gc.total_bytes for life in result.lives
                  for gc in life.committed),
              "storage.pieces": sum(life.store.count()
                                    for life in result.lives),
              "storage.corruptions_detected": len(result.corruptions),
              "faults.crashes": len(result.failures),
              "faults.lives": len(result.lives)}
    rank_sim_s = sum(config.nranks * (life.t_end - life.t_start)
                     for life in result.lives)
    # one operation for the run plus one per recovery; a failed recovery
    # is a recovery that did not walk back as planned
    return Outcome(digest=h.hexdigest(), counts=counts,
                   rank_sim_s=rank_sim_s, attempted=1 + CRASHES,
                   failed=min(len(problems), 1 + CRASHES),
                   problems=problems)


def _ib_table(configs, results) -> dict:
    return {f"{c.spec.name}@{c.timeslice}": [
        r.ib().avg_mbps, r.ib().max_mbps, r.ib().avg_iws_mb,
        r.ib().max_iws_mb] for c, r in zip(configs, results)}


def fig2_order(seed: int) -> list[tuple[str, float]]:
    """The submission order: longest point first, so the pool's last
    tasks are short ones, with the seed shuffling each run of
    ``2 * FIG2_JOBS`` consecutive points.  A free shuffle would let the
    seed decide whether a 2-second point ends the sweep alone, which
    moves the wall time by a quarter from seed to seed."""
    points = sorted(((name, ts) for name in FIG2_PANELS
                     for ts in FIG2_TIMESLICES),
                    key=lambda p: -FIG2_COST[p[0]][
                        FIG2_TIMESLICES.index(p[1])])
    rng = np.random.default_rng(seed)
    wave = 2 * FIG2_JOBS
    return [points[i + j] for i in range(0, len(points), wave)
            for j in rng.permutation(min(wave, len(points) - i))]


def fig2_sweep(seed: int, work: Path, marks: Marks) -> Outcome:
    """The paper's Fig-2 sweep through a two-worker pool and a fresh
    result cache, cold and then warm: the exec layer."""
    from repro.cluster.experiment import paper_config
    from repro.exec import ResultCache, SweepExecutor
    from repro.exec import pool

    configs = [paper_config(name, nranks=FIG2_NRANKS).scaled(timeslice=ts)
               for name, ts in fig2_order(seed)]
    cache = ResultCache(work / "cache")
    # set-up ends once the warm pool's workers are up (forked lazily, one
    # per submitted task while none is idle)
    workers = pool._get_pool(FIG2_JOBS)
    try:
        for f in [workers.submit(int) for _ in range(FIG2_JOBS)]:
            f.result()
        marks.setup_done()

        cold = SweepExecutor(jobs=FIG2_JOBS, cache=cache).run_many(configs)
        cold_hits, cold_misses = cache.hits, cache.misses
        t_warm = time.perf_counter()
        warm = SweepExecutor(jobs=FIG2_JOBS, cache=cache).run_many(configs)
        warm_s = time.perf_counter() - t_warm
        warm_hits = cache.hits - cold_hits
    finally:
        pool.shutdown_pool()

    problems = []
    table = _ib_table(configs, cold)
    if _ib_table(configs, warm) != table:
        problems.append("warm IB table differs from the cold one")
    if warm_hits != len(configs):
        problems.append(f"warm pass hit the cache {warm_hits} of "
                        f"{len(configs)} time(s)")
    h = hashlib.sha256()
    h.update(json.dumps(table, sort_keys=True).encode())
    for key, result in sorted(zip((f"{c.spec.name}@{c.timeslice}"
                                   for c in configs), cold)):
        h.update(key.encode())
        _hash_logs(h, result.logs)
    counts = {**_log_counts([r.logs for r in cold]),
              "exec.points": 2 * len(configs),
              "exec.cache_hits": cache.hits,
              "exec.cache_misses": cache.misses,
              "exec.cold_misses": cold_misses}
    return Outcome(digest=h.hexdigest(), counts=counts,
                   rank_sim_s=sum(c.nranks * r.final_time
                                  for c, r in zip(configs, cold)),
                   attempted=2 * len(configs),
                   failed=2 * len(configs) if problems else 0,
                   problems=problems,
                   timings={"exec.warm_sweep_s": warm_s})


WORKLOADS = {
    "scale_skeleton": scale_skeleton,
    "ckpt_write": ckpt_write,
    "crash_recovery": crash_recovery,
    "fig2_sweep": fig2_sweep,
}

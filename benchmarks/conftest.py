"""Shared infrastructure for the benchmark suite.

Every bench regenerates one table or figure of the paper: it runs the
simulation at the paper's parameters, prints the rows/series next to the
published values, asserts the *shape* (orderings, monotonicity, rough
magnitudes -- the substrate is a simulator, not the authors' testbed),
and saves the rendered table under ``benchmarks/out/``.

Experiments are deterministic, so results are memoized twice: per
session (the figure benches share runs with the table benches where
parameters coincide) and persistently under ``benchmarks/.cache/``
through :class:`repro.exec.ResultCache`, keyed by (config, workload
spec, code version) -- repeat benchmark runs skip the simulation
entirely.  Set ``REPRO_BENCH_CACHE=0`` to disable the disk cache, or
delete ``benchmarks/.cache/`` to drop it; editing any ``repro`` module
invalidates every entry automatically via the code fingerprint.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.cluster.experiment import (
    ExperimentConfig,
    ExperimentResult,
    paper_config,
    run_experiment,
)
from repro.exec import ResultCache, cache_key

OUT_DIR = Path(__file__).parent / "out"
CACHE_DIR = Path(__file__).parent / ".cache"

#: the paper's application order in Tables 2-4
PAPER_ORDER = ["sage-1000MB", "sage-500MB", "sage-100MB", "sage-50MB",
               "sweep3d", "sp", "lu", "bt", "ft"]

#: Table 2 (memory footprint, MB)
TABLE2 = {
    "sage-1000MB": (954.6, 779.5), "sage-500MB": (497.3, 407.3),
    "sage-100MB": (103.7, 86.9), "sage-50MB": (55.0, 45.2),
    "sweep3d": (105.5, 105.5), "sp": (40.1, 40.1), "lu": (16.6, 16.6),
    "bt": (76.5, 76.5), "ft": (118.0, 118.0),
}

#: Table 3 (iteration period s, fraction overwritten)
TABLE3 = {
    "sage-1000MB": (145.0, 0.53), "sage-500MB": (80.0, 0.54),
    "sage-100MB": (38.0, 0.56), "sage-50MB": (20.0, 0.57),
    "sweep3d": (7.0, 0.52), "sp": (0.16, 0.72), "lu": (0.7, 0.72),
    "bt": (0.4, 0.92), "ft": (1.2, 0.57),
}

#: Table 4 (max IB, avg IB at a 1 s timeslice, MB/s)
TABLE4 = {
    "sage-1000MB": (274.9, 78.8), "sage-500MB": (186.9, 49.9),
    "sage-100MB": (42.6, 15.0), "sage-50MB": (24.9, 9.6),
    "sweep3d": (79.1, 49.5), "sp": (32.6, 32.6), "lu": (12.5, 12.5),
    "bt": (72.7, 68.6), "ft": (101.0, 92.1),
}

#: the timeslice sweep of Figs 2-4
FIG2_TIMESLICES = [1.0, 2.0, 5.0, 10.0, 15.0, 20.0]

_memo: dict[str, ExperimentResult] = {}
_disk_cache: ResultCache | None = (
    ResultCache(CACHE_DIR)
    if os.environ.get("REPRO_BENCH_CACHE", "1") != "0" else None)


def _cached(config: ExperimentConfig, live: bool = False) -> ExperimentResult:
    """Session-memoized, disk-cached experiment run.

    With ``live=True`` the result must carry the live simulation objects
    (app/library/job), so the disk cache -- which stores only traces and
    derived metadata -- is bypassed for both read and write of fresh
    runs; the session memo still applies.
    """
    key = cache_key(config)
    result = _memo.get(key)
    if result is not None and not (live and result.job is None):
        return result
    result = None
    if not live and _disk_cache is not None:
        result = _disk_cache.get(config)
    if result is None:
        result = run_experiment(config)
        if _disk_cache is not None:
            _disk_cache.put(config, result)
    _memo[key] = result
    return result


def cached_run(name: str, *, timeslice: float = 1.0, nranks: int = 4,
               live: bool = False, **overrides) -> ExperimentResult:
    """Run (or reuse) one paper experiment."""
    return _cached(paper_config(name, timeslice=timeslice, nranks=nranks,
                                **overrides), live=live)


def cached_config_run(config: ExperimentConfig,
                      live: bool = False) -> ExperimentResult:
    """Run (or reuse) an arbitrary config."""
    return _cached(config, live=live)


def report(title: str, lines: list[str], filename: str) -> str:
    """Print a rendered table/figure and save it under benchmarks/out/."""
    text = "\n".join([f"== {title} ==", *lines, ""])
    print("\n" + text)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / filename).write_text(text)
    return text


def within(measured: float, expected: float, rel: float) -> bool:
    """Shape check with a generous relative band."""
    if expected == 0:
        return abs(measured) < 1e-9
    return abs(measured - expected) <= rel * abs(expected)

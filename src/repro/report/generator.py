"""Generate the full reproduction report.

Runs the paper's evaluation (Tables 2-4, Figs 1-5, sections 6.3/6.5/6.6)
on the simulated cluster and writes

- ``report.md`` -- every table with simulated-versus-paper columns,
  ASCII renderings of the figures, the feasibility verdicts, and the
  calibration summary;
- ``fig*.tsv`` -- the raw series behind each figure, for plotting.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from repro.apps import PAPER_APPS, paper_spec
from repro.apps.validation import summarize, validate_all
from repro.atomic import atomic_write
from repro.cluster.experiment import (
    ExperimentResult,
    paper_config,
    run_experiment,
)
from repro.feasibility import FeasibilityAnalyzer, TechnologyEnvelope, TrendModel
from repro.feasibility.taxonomy import render_table1
from repro.report.render import ascii_series, tsv_series
from repro.units import MiB

#: the timeslice sweep of Figs 2-4
_TIMESLICES = (1.0, 2.0, 5.0, 10.0, 15.0, 20.0)
_FIG2_PANELS = ("sage-1000MB", "sweep3d", "bt", "sp", "ft", "lu")
_SAGE_SIZES = ("sage-50MB", "sage-100MB", "sage-500MB", "sage-1000MB")


class _Runner:
    """Memoized experiment runner for the report."""

    def __init__(self, nranks: int):
        self.nranks = nranks
        self._cache: dict[tuple, ExperimentResult] = {}

    def run(self, name: str, timeslice: float = 1.0,
            **overrides) -> ExperimentResult:
        key = (name, timeslice, tuple(sorted(overrides.items())))
        if key not in self._cache:
            self._cache[key] = run_experiment(
                paper_config(name, nranks=self.nranks, timeslice=timeslice,
                             **overrides))
        return self._cache[key]


def generate_report(out_dir: Union[str, Path], *, nranks: int = 2,
                    quick: bool = False) -> Path:
    """Write the report; returns the path of ``report.md``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    runner = _Runner(nranks)
    timeslices = _TIMESLICES[:3] if quick else _TIMESLICES
    apps = list(PAPER_APPS)
    md: list[str] = ["# Incremental-checkpointing feasibility: reproduction report",
                     "",
                     f"Simulated cluster, {nranks} ranks per measurement; "
                     "initialization bursts excluded as in the paper.", ""]

    # -- Table 1 ------------------------------------------------------------------
    md += ["## Table 1: abstraction levels", "", "```",
           render_table1(), "```", ""]

    # -- Tables 2 and 4 -----------------------------------------------------------
    md += ["## Tables 2 and 4: footprint and bandwidth at a 1 s timeslice",
           "",
           "| application | fp max sim/paper (MB) | fp avg sim/paper (MB) "
           "| avg IB sim/paper (MB/s) | max IB sim/paper (MB/s) |",
           "|---|---|---|---|---|"]
    for name in apps:
        spec = paper_spec(name)
        res = runner.run(name)
        fp = res.footprint()
        ib = res.ib()
        md.append(
            f"| {name} | {fp.max_mb:.1f} / {spec.paper_footprint_max_mb:.1f} "
            f"| {fp.avg_mb:.1f} / {spec.paper_footprint_avg_mb:.1f} "
            f"| {ib.avg_mbps:.1f} / {spec.paper_avg_ib_1s:.1f} "
            f"| {ib.max_mbps:.1f} / {spec.paper_max_ib_1s:.1f} |")
    md.append("")

    # -- Fig 1 ---------------------------------------------------------------------
    fig1_app = "sage-100MB" if quick else "sage-1000MB"
    res1 = runner.run(fig1_app, run_duration=160.0 if quick else 500.0)
    log1 = res1.log(0)
    md += [f"## Fig 1: {fig1_app} timeline (timeslice 1 s)", "", "```",
           ascii_series(log1.iws_mb(), label="(a) IWS size per timeslice, MB"),
           "",
           ascii_series(log1.received_mb(),
                        label="(b) data received per timeslice, MB"),
           "```", ""]
    atomic_write(out / "fig1.tsv", tsv_series({
        "t_end": log1.times(), "iws_mb": log1.iws_mb(),
        "received_mb": log1.received_mb(),
        "footprint_mb": log1.footprint_mb()}))

    # -- Fig 2 ---------------------------------------------------------------------
    md += ["## Fig 2: IB versus timeslice", ""]
    fig2_cols: dict[str, list] = {"timeslice": list(timeslices)}
    for name in _FIG2_PANELS:
        avg_series, max_series = [], []
        for ts in timeslices:
            stats = runner.run(name, timeslice=ts).ib()
            avg_series.append(stats.avg_mbps)
            max_series.append(stats.max_mbps)
        fig2_cols[f"{name}_avg"] = avg_series
        fig2_cols[f"{name}_max"] = max_series
        md.append(f"- **{name}**: avg " + " -> ".join(
            f"{v:.1f}" for v in avg_series) + " MB/s over " + ", ".join(
            f"{t:.0f}s" for t in timeslices))
    md.append("")
    atomic_write(out / "fig2.tsv", tsv_series(fig2_cols))

    # -- Figs 3 and 4 -----------------------------------------------------------------
    md += ["## Figs 3-4: Sage problem sizes", "",
           "| timeslice | " + " | ".join(_SAGE_SIZES) + " | (avg IB MB/s; "
           "IWS/footprint ratio in parentheses) |",
           "|---|" + "---|" * (len(_SAGE_SIZES) + 1)]
    fig34_cols: dict[str, list] = {"timeslice": list(timeslices)}
    for name in _SAGE_SIZES:
        fig34_cols[f"{name}_avg_ib"] = []
        fig34_cols[f"{name}_ratio"] = []
    for ts in timeslices:
        cells = []
        for name in _SAGE_SIZES:
            res = runner.run(name, timeslice=ts)
            stats = res.ib()
            ratio = res.iws_ratio()
            fig34_cols[f"{name}_avg_ib"].append(stats.avg_mbps)
            fig34_cols[f"{name}_ratio"].append(ratio)
            cells.append(f"{stats.avg_mbps:.1f} ({ratio:.1%})")
        md.append(f"| {ts:.0f}s | " + " | ".join(cells) + " | |")
    md.append("")
    atomic_write(out / "fig3_fig4.tsv", tsv_series(fig34_cols))

    # -- Fig 5 -------------------------------------------------------------------------
    fig5_app = "sage-100MB"
    counts = (4, 8) if quick else (8, 16, 32, 64)
    md += [f"## Fig 5: weak scaling of {fig5_app}", ""]
    fig5_cols = {"nranks": list(counts), "avg_ib": []}
    for n in counts:
        stats = run_experiment(paper_config(fig5_app, nranks=n,
                                            timeslice=1.0)).ib()
        fig5_cols["avg_ib"].append(stats.avg_mbps)
        md.append(f"- {n} processors: {stats.avg_mbps:.2f} MB/s per process")
    md.append("")
    atomic_write(out / "fig5.tsv", tsv_series(fig5_cols))

    # -- section 6.3 ---------------------------------------------------------------------
    analyzer = FeasibilityAnalyzer()
    verdicts = [analyzer.assess(name, runner.run(name).ib())
                for name in apps]
    md += ["## Section 6.3: feasibility verdicts", "", "```",
           analyzer.report(verdicts), "```", ""]

    # -- section 6.6 ---------------------------------------------------------------------
    heaviest = max(verdicts, key=lambda v: v.avg_demand)
    trajectory = TrendModel().margin_trajectory(
        heaviest.avg_demand, TechnologyEnvelope(), years=6)
    md += ["## Section 6.6: trend extrapolation", ""]
    md += [f"- {year}: demand/bottleneck = {margin:.1%}"
           for year, margin in trajectory]
    md.append("")

    # -- calibration summary ----------------------------------------------------------------
    if not quick:
        md += ["## Calibration summary", "", "```",
               summarize(validate_all(nranks=nranks)), "```", ""]

    report_path = out / "report.md"
    atomic_write(report_path, "\n".join(md))
    return report_path

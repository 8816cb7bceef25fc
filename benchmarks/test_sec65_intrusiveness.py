"""Section 6.5: intrusiveness of the instrumentation.

The paper reports a slowdown below 10 % for Sage-1000MB at a 1 s
timeslice, dominated by the page-fault handler and decreasing for longer
timeslices (data reuse means fewer faults per unit time).

The bench runs Sage-1000MB with overhead charging on (fault cost and
re-protect sweep stretch the application's clock) against an
uninstrumented baseline, across timeslices.
"""

from conftest import cached_config_run, report

from repro.cluster.experiment import paper_config, run_uninstrumented

TIMESLICES = [1.0, 2.0, 5.0, 10.0, 20.0]
APP = "sage-1000MB"


def build_slowdowns():
    base_cfg = paper_config(APP, nranks=2, run_duration=300.0)
    baseline = run_uninstrumented(base_cfg)
    rows = {}
    for ts in TIMESLICES:
        cfg = base_cfg.scaled(timeslice=ts, charge_overhead=True)
        res = cached_config_run(cfg)
        rows[ts] = (res.slowdown_vs(baseline),
                    res.log(0).total_overhead(),
                    res.log(0).faults().sum())
    return rows


def test_sec65_intrusiveness(benchmark):
    rows = benchmark.pedantic(build_slowdowns, rounds=1, iterations=1)
    lines = [f"  {'timeslice':>10s} {'slowdown':>9s} {'overhead':>10s} "
             f"{'faults':>10s}"]
    for ts in TIMESLICES:
        slow, overhead, faults = rows[ts]
        lines.append(f"  {ts:9.0f}s {slow:9.2%} {overhead:9.2f}s "
                     f"{faults:10d}")
    lines.append("")
    lines.append("paper: slowdown lower than 10% at a 1 s timeslice, "
                 "decreasing with the timeslice")
    report(f"Section 6.5: instrumentation slowdown for {APP}", lines,
           "sec65.txt")

    slowdowns = [rows[ts][0] for ts in TIMESLICES]
    # below 10% at 1 s, and measurably above zero
    assert 0.001 < slowdowns[0] < 0.10, slowdowns[0]
    # decreasing with the timeslice (the reuse argument)
    assert slowdowns[-1] < slowdowns[0]
    for a, b in zip(slowdowns, slowdowns[1:]):
        assert b <= a * 1.25 + 1e-4, slowdowns
    # fewer faults per unit time at longer timeslices
    faults = [rows[ts][2] for ts in TIMESLICES]
    assert faults[-1] < faults[0]

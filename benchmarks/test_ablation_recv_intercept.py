"""Ablation: the bounce-buffer receive interception (section 4.2).

The QsNet NIC deposits received data straight into user memory, taking
no page faults.  Without the paper's receive interception the tracker
undercounts the IWS -- and an incremental checkpoint built on it would
silently lose received data.  The bench quantifies the undercount on
FT, the most communication-intensive workload.
"""

from conftest import cached_config_run, report

from repro.cluster.experiment import paper_config
from repro.units import MiB

APP = "ft"


def build_rows():
    on = cached_config_run(paper_config(APP, nranks=4, timeslice=1.0,
                                        intercept_receives=True))
    off = cached_config_run(paper_config(APP, nranks=4, timeslice=1.0,
                                         intercept_receives=False),
                            live=True)
    missed = sum(nic.dma_missed_pages for nic in off.job.nics)
    return on.ib(), off.ib(), missed


def test_ablation_recv_intercept(benchmark):
    stats_on, stats_off, missed = benchmark.pedantic(build_rows, rounds=1,
                                                     iterations=1)
    lines = [
        f"workload {APP} (all-to-all transposes every iteration)",
        f"interception ON  : avg IB {stats_on.avg_mbps:6.1f} MB/s "
        f"(received data faults through the bounce-buffer copy)",
        f"interception OFF : avg IB {stats_off.avg_mbps:6.1f} MB/s "
        f"(NIC DMA invisible to the tracker)",
        f"undercount       : {1 - stats_off.avg_mbps / stats_on.avg_mbps:.0%}",
        f"pages modified without being recorded: {missed}",
        "",
        "an incremental checkpoint built on the OFF trace would lose every",
        "one of those pages on recovery",
    ]
    report("Ablation: receive interception vs raw QsNet DMA", lines,
           "ablation_recv_intercept.txt")

    # without interception a large share of FT's IWS disappears
    assert stats_off.avg_mbps < stats_on.avg_mbps * 0.85
    assert missed > 0

"""The feasibility verdict: measured demand versus available bandwidth.

Reproduces the paper's section 6.3 comparison: even at the most
demanding setting (a 1 s timeslice), the average IB of the heaviest
application (Sage-1000MB, 78.8 MB/s) is ~9 % of the QsNet II peak and
~25 % of the SCSI disk peak -- comfortably feasible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError
from repro.feasibility.technology import TechnologyEnvelope
from repro.metrics.bandwidth import IBStats
from repro.units import MiB, fmt_bandwidth


@dataclass(frozen=True)
class FeasibilityVerdict:
    """One application's demand against one technology envelope."""

    app_name: str
    timeslice: float
    avg_demand: float          #: B/s
    max_demand: float          #: B/s
    envelope: TechnologyEnvelope
    headroom_required: float   #: demand may use at most this fraction

    @property
    def avg_fraction_of_network(self) -> float:
        return self.avg_demand / self.envelope.network_bandwidth

    @property
    def avg_fraction_of_disk(self) -> float:
        return self.avg_demand / self.envelope.disk_bandwidth

    @property
    def max_fraction_of_network(self) -> float:
        return self.max_demand / self.envelope.network_bandwidth

    @property
    def max_fraction_of_disk(self) -> float:
        return self.max_demand / self.envelope.disk_bandwidth

    @property
    def feasible(self) -> bool:
        """Peak demand fits in the bottleneck with the required headroom."""
        return (self.max_demand
                <= self.envelope.bottleneck_bandwidth * self.headroom_required)

    def as_row(self) -> str:
        """One printable verdict row."""
        return (f"{self.app_name:14s} avg={self.avg_demand / MiB:7.1f} MB/s "
                f"({self.avg_fraction_of_network:5.1%} net, "
                f"{self.avg_fraction_of_disk:5.1%} disk)  "
                f"max={self.max_demand / MiB:7.1f} MB/s  "
                f"{'FEASIBLE' if self.feasible else 'INFEASIBLE'}")


@dataclass(frozen=True)
class MeasuredVerdict:
    """What the checkpoint transport actually achieved, under contention.

    The analytic :class:`FeasibilityVerdict` compares IB demand against
    peak bandwidths; this one reads a
    :class:`~repro.checkpoint.transport.TransportStats` snapshot from a
    run whose checkpoints were real scheduled traffic: the drain
    bandwidth the pipeline achieved, whether the drain queues kept up
    (no backpressure stalls), and how much the checkpoint frames slowed
    application messages per timeslice.
    """

    app_name: str
    timeslice: float
    mode: str                    #: transport mode ("network"/"diskless")
    achieved_bandwidth: float    #: B/s over the per-rank busy union
    bytes_drained: int
    envelope: TechnologyEnvelope
    stall_time: float            #: backpressure seconds charged to the app
    stalls: int
    peak_queue_bytes: int
    contention_delay: float      #: app-message delay behind ckpt frames
    contended_messages: int
    #: checkpoint-induced app-message delay per sampled timeslice
    per_slice_contention: tuple = ()

    @property
    def drain_bound(self) -> float:
        """The most this mode's drain can sustain (B/s): network frames
        must cross the wire *and* land on disk, but diskless frames land
        in buddy memory and never touch a disk, so only the network
        bounds them."""
        if self.mode == "diskless":
            return self.envelope.network_bandwidth
        return self.envelope.sustainable_bandwidth

    @property
    def fraction_of_sustainable(self) -> float:
        return self.achieved_bandwidth / self.drain_bound

    @property
    def keeping_up(self) -> bool:
        """The drain never forced a backpressure stall: the demand fits
        the transport as *built*, not just as modelled."""
        return self.stalls == 0

    def as_row(self) -> str:
        """One printable measured-verdict row."""
        return (f"{self.app_name:14s} drain={self.achieved_bandwidth / MiB:7.1f} MB/s "
                f"({self.fraction_of_sustainable:5.1%} of sustainable) "
                f"stalls={self.stalls:3d} "
                f"contention={self.contention_delay * 1e3:8.3f} ms "
                f"{'KEEPING UP' if self.keeping_up else 'BACKPRESSURED'}")


class FeasibilityAnalyzer:
    """Turns IB measurements into feasibility verdicts."""

    def __init__(self, envelope: Optional[TechnologyEnvelope] = None,
                 headroom_required: float = 1.0):
        if not (0 < headroom_required <= 1.0):
            raise ConfigurationError(
                f"headroom fraction must be in (0, 1]: {headroom_required}")
        self.envelope = envelope or TechnologyEnvelope()
        self.headroom_required = headroom_required

    def assess(self, app_name: str, stats: IBStats) -> FeasibilityVerdict:
        """Verdict from measured IB statistics."""
        return self.assess_rates(app_name, stats.avg_mbps * MiB,
                                 stats.max_mbps * MiB, stats.timeslice)

    def assess_rates(self, app_name: str, avg_bps: float, max_bps: float,
                     timeslice: float = 1.0) -> FeasibilityVerdict:
        """Verdict from raw average/maximum demand rates (B/s)."""
        if avg_bps < 0 or max_bps < avg_bps * (1.0 - 1e-9):
            raise ConfigurationError(
                f"bad demand rates avg={avg_bps}, max={max_bps}")
        max_bps = max(max_bps, avg_bps)  # absorb float rounding
        return FeasibilityVerdict(app_name=app_name, timeslice=timeslice,
                                  avg_demand=avg_bps, max_demand=max_bps,
                                  envelope=self.envelope,
                                  headroom_required=self.headroom_required)

    def assess_measured(self, app_name: str, stats,
                        timeslice: float = 1.0) -> MeasuredVerdict:
        """Measured verdict from a transport snapshot
        (:class:`~repro.checkpoint.transport.TransportStats`)."""
        if not stats.measured:
            raise ConfigurationError(
                f"transport mode {stats.mode!r} produces no measured "
                "traffic; run with the network or diskless transport")
        return MeasuredVerdict(
            app_name=app_name,
            timeslice=timeslice,
            mode=stats.mode,
            achieved_bandwidth=stats.achieved_bandwidth,
            bytes_drained=stats.bytes_drained,
            envelope=self.envelope,
            stall_time=stats.stall_time,
            stalls=stats.stalls,
            peak_queue_bytes=stats.peak_queue_bytes,
            contention_delay=stats.contention_delay,
            contended_messages=stats.contended_messages,
            per_slice_contention=tuple(stats.per_slice_contention()))

    def report(self, verdicts: list[FeasibilityVerdict]) -> str:
        """A printable table (one row per application)."""
        lines = [
            f"Technology envelope ({self.envelope.year}): "
            f"network {fmt_bandwidth(self.envelope.network_bandwidth)}, "
            f"disk {fmt_bandwidth(self.envelope.disk_bandwidth)}",
        ]
        lines += [v.as_row() for v in verdicts]
        n_ok = sum(v.feasible for v in verdicts)
        lines.append(f"{n_ok}/{len(verdicts)} applications feasible")
        return "\n".join(lines)

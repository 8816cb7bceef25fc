"""Availability modelling: from feasible bandwidth to cluster efficiency.

The paper's motivation (section 1): BlueGene/L-scale machines with tens
of thousands of processors fail every few hours, so checkpoints must be
taken "every few minutes".  This module closes that loop -- it turns the
measured incremental bandwidth into the quantity operators care about:
**machine efficiency under failures** as a function of system size and
checkpoint interval.

Model (the classic Young/Daly first-order analysis):

- nodes fail independently with MTBF ``node_mtbf``; a system of ``N``
  nodes has ``system_mtbf = node_mtbf / N``;
- a checkpoint costs ``C`` seconds (delta size / storage bandwidth);
- a failure loses on average half a checkpoint interval plus a restart
  time ``R``;
- Young's optimum interval is ``sqrt(2 * C * system_mtbf)``.

Efficiency = useful time / wall time
           = (1 - C/tau) * exp-approximated failure waste
           ~ (1 - C/tau) * (1 - (tau/2 + R) / system_mtbf)

valid while tau << system_mtbf (the regime the paper targets).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.units import MiB


@dataclass(frozen=True)
class FailureModel:
    """Cluster-level failure characteristics."""

    node_mtbf: float              #: seconds between failures of ONE node
    nnodes: int
    restart_time: float = 300.0   #: reboot + restore + rejoin, seconds

    def __post_init__(self) -> None:
        if self.node_mtbf <= 0:
            raise ConfigurationError("node MTBF must be positive")
        if self.nnodes < 1:
            raise ConfigurationError("need at least one node")
        if self.restart_time < 0:
            raise ConfigurationError("restart time must be >= 0")

    @property
    def system_mtbf(self) -> float:
        """Mean time between failures anywhere in the system."""
        return self.node_mtbf / self.nnodes


@dataclass(frozen=True)
class CheckpointCostModel:
    """How long one coordinated checkpoint takes to reach stable storage."""

    delta_bytes: int        #: per-process incremental checkpoint size
    storage_bandwidth: float  #: per-process sink bandwidth, B/s
    latency: float = 0.1    #: coordination + commit overhead, seconds

    def __post_init__(self) -> None:
        if self.delta_bytes < 0 or self.storage_bandwidth <= 0 or self.latency < 0:
            raise ConfigurationError("bad checkpoint cost parameters")

    @property
    def cost(self) -> float:
        """Seconds per checkpoint."""
        return self.latency + self.delta_bytes / self.storage_bandwidth


def young_interval(cost: float, system_mtbf: float) -> float:
    """Young's optimum checkpoint interval ``sqrt(2 * C * MTBF)``."""
    if cost <= 0 or system_mtbf <= 0:
        raise ConfigurationError("cost and MTBF must be positive")
    return math.sqrt(2.0 * cost * system_mtbf)


def efficiency(interval: float, cost: float, failures: FailureModel) -> float:
    """Expected fraction of wall time doing useful work.

    First-order model: checkpoint overhead ``cost/interval`` plus
    failure waste ``(interval/2 + restart) / system_mtbf``.  Clamped to
    [0, 1]; returns 0 where the model's assumptions collapse (interval
    comparable to the MTBF).
    """
    if interval <= cost:
        return 0.0
    mtbf = failures.system_mtbf
    ckpt_overhead = cost / interval
    failure_waste = (interval / 2.0 + failures.restart_time) / mtbf
    eff = (1.0 - ckpt_overhead) * (1.0 - failure_waste)
    return max(0.0, min(1.0, eff))


def optimal_efficiency(cost: float, failures: FailureModel) -> tuple[float, float]:
    """(best interval, efficiency at it), using Young's interval."""
    tau = young_interval(cost, failures.system_mtbf)
    return tau, efficiency(tau, cost, failures)


def efficiency_curve(cost: float, failures: FailureModel,
                     intervals: list[float]) -> list[tuple[float, float]]:
    """(interval, efficiency) samples for plotting/benching."""
    if not intervals:
        raise ConfigurationError("no intervals given")
    return [(tau, efficiency(tau, cost, failures)) for tau in intervals]


def observed_efficiency(wall_time: float, total_downtime: float,
                        total_lost_work: float) -> float:
    """Empirical efficiency of one fault-injection run: the fraction of
    wall time spent on useful work (neither down nor later recomputed).
    The measured counterpart of :func:`efficiency`."""
    if wall_time <= 0:
        raise ConfigurationError("wall time must be positive")
    if total_downtime < 0 or total_lost_work < 0:
        raise ConfigurationError("downtime and lost work must be >= 0")
    waste = total_downtime + total_lost_work
    if waste > wall_time:
        raise ConfigurationError("waste cannot exceed the wall time")
    return (wall_time - waste) / wall_time


def predicted_vs_observed(interval: float, cost: float,
                          failures: FailureModel,
                          observed: float) -> dict:
    """Close the loop between the analytic model and a measured
    fault-injection run: the Young/Daly prediction at the run's actual
    checkpoint interval, the observation, and their gap."""
    predicted = efficiency(interval, cost, failures)
    return {
        "interval": interval,
        "checkpoint_cost": cost,
        "system_mtbf": failures.system_mtbf,
        "predicted_efficiency": predicted,
        "observed_efficiency": observed,
        "gap": observed - predicted,
    }


def scale_study(delta_bytes: int, storage_bandwidth: float,
                node_mtbf: float, node_counts: list[int],
                restart_time: float = 300.0) -> list[dict]:
    """The BlueGene/L question: how does achievable efficiency evolve as
    the machine grows, with incremental checkpointing at the measured
    per-process delta?

    Returns one row per node count: system MTBF, checkpoint cost,
    Young-optimal interval, and the efficiency at that interval.
    """
    cost_model = CheckpointCostModel(delta_bytes=delta_bytes,
                                     storage_bandwidth=storage_bandwidth)
    rows = []
    for n in node_counts:
        failures = FailureModel(node_mtbf=node_mtbf, nnodes=n,
                                restart_time=restart_time)
        tau, eff = optimal_efficiency(cost_model.cost, failures)
        rows.append({
            "nnodes": n,
            "system_mtbf": failures.system_mtbf,
            "checkpoint_cost": cost_model.cost,
            "optimal_interval": tau,
            "efficiency": eff,
        })
    return rows

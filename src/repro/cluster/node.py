"""Node and cluster hardware models.

The paper's testbed: 32 HP Server rx2600 nodes, each with two Itanium II
processors and two PCI-X I/O buses, connected by Quadrics QsNet.  The
Itanium II's high memory bandwidth makes it the *worst case* for
incremental checkpointing -- a faster writer dirties more pages per
second -- so results generalize to slower processors (section 5).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.net.models import LinkSpec, QSNET2
from repro.storage.models import DiskSpec, SCSI_ULTRA320
from repro.units import GiB, MiB


@dataclass(frozen=True)
class NodeSpec:
    """One cluster node."""

    name: str
    cpus: int
    #: sustainable memory write bandwidth per CPU (STREAM-like), B/s --
    #: the physical ceiling on how fast an application can dirty pages
    memory_write_bandwidth: float
    io_buses: int
    memory_capacity: int

    def __post_init__(self) -> None:
        if self.cpus < 1 or self.io_buses < 1:
            raise ConfigurationError("node needs at least one CPU and bus")
        if self.memory_write_bandwidth <= 0 or self.memory_capacity <= 0:
            raise ConfigurationError("bandwidth and capacity must be positive")

    def max_dirty_rate(self) -> float:
        """Upper bound on per-process page-dirtying bandwidth (B/s): no
        application can require more incremental bandwidth than the
        memory system lets it write."""
        return self.memory_write_bandwidth


#: HP Server rx2600: 2x Itanium II (~4 GB/s STREAM triad per socket of
#: that era), 2 PCI-X buses, 2-12 GB of memory.
RX2600 = NodeSpec("HP rx2600 (2x Itanium II)", cpus=2,
                  memory_write_bandwidth=4 * GiB, io_buses=2,
                  memory_capacity=4 * GiB)


@dataclass(frozen=True)
class ClusterSpec:
    """A cluster: nodes + interconnect + per-node storage."""

    nnodes: int
    node: NodeSpec = RX2600
    link: LinkSpec = QSNET2
    disk: DiskSpec = SCSI_ULTRA320

    def __post_init__(self) -> None:
        if self.nnodes < 1:
            raise ConfigurationError("cluster needs at least one node")


#: the paper's full testbed
PAPER_CLUSTER = ClusterSpec(nnodes=32)

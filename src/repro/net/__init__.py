"""Interconnect model: links, messages, topology, and the DMA-capable NIC.

The cluster in the paper uses the Quadrics QsNet network, whose NIC
writes received messages *directly into user-space memory*.  That direct
access bypasses page protection, which breaks (and on real hardware,
fights with) ``mprotect``-based dirty-page tracking -- the reason the
instrumentation library intercepts receives through a bounce buffer.
:class:`~repro.net.nic.NIC` reproduces both paths.
"""

from repro.net.models import LinkSpec, ETHERNET_1G, ETHERNET_100M, INFINIBAND_10G, QSNET2
from repro.net.message import Message
from repro.net.network import Network, StoragePort
from repro.net.nic import NIC
from repro.net.topology import Topology

__all__ = [
    "ETHERNET_100M",
    "ETHERNET_1G",
    "INFINIBAND_10G",
    "LinkSpec",
    "Message",
    "Network",
    "NIC",
    "QSNET2",
    "StoragePort",
    "Topology",
]

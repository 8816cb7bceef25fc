"""Cluster topology: hop counts between nodes.

QsNet clusters are wired as quaternary fat trees; for the modest node
counts of the paper (up to 32 nodes / 64 processors) every pair is a few
hops apart.  The topology only influences the per-hop latency component,
but modelling it keeps the network substrate honest and supports the
scalability experiments.
"""

from __future__ import annotations

from typing import Literal

from repro.errors import ConfigurationError


class Topology:
    """Hop counts in closed form, equal to the shortest path through the
    switches of each shape.

    Supported shapes:

    - ``"fat-tree"`` -- quaternary fat tree (QsNet style): nodes hang off
      leaf switches of radix 4, with enough levels for the node count.
      Nodes ``a`` and ``b`` meet at the lowest level ``k >= 1`` where
      ``a // radix**k == b // radix**k``, ``2*k`` hops apart;
    - ``"star"`` -- one crossbar (every pair 2 hops);
    - ``"ring"`` -- nodes in a cycle (for contrast in ablations):
      ``min(d, nnodes - d)`` hops for ``d = |a - b|``.

    A node is 0 hops from itself.
    """

    def __init__(self, nnodes: int,
                 shape: Literal["fat-tree", "star", "ring"] = "fat-tree",
                 radix: int = 4):
        if nnodes < 1:
            raise ConfigurationError(f"need at least one node, got {nnodes}")
        if radix < 2:
            raise ConfigurationError(f"switch radix must be >= 2, got {radix}")
        if shape not in ("fat-tree", "star", "ring"):
            raise ConfigurationError(f"unknown topology shape {shape!r}")
        self.nnodes = nnodes
        self.shape = shape
        self.radix = radix

    def hops(self, a: int, b: int) -> int:
        """Switch-to-switch hop count between nodes ``a`` and ``b``."""
        if not (0 <= a < self.nnodes and 0 <= b < self.nnodes):
            raise ConfigurationError(
                f"node pair ({a}, {b}) outside topology of {self.nnodes}")
        if a == b:
            return 0
        if self.shape == "star":
            return 2
        if self.shape == "ring":
            d = abs(a - b)
            return min(d, self.nnodes - d)
        level, span = 1, self.radix
        while a // span != b // span:
            level += 1
            span *= self.radix
        return 2 * level

    def diameter(self) -> int:
        """Largest hop count over all node pairs."""
        return max((self.hops(a, b)
                    for a in range(self.nnodes)
                    for b in range(a + 1, self.nnodes)), default=0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Topology {self.shape} nnodes={self.nnodes}>"

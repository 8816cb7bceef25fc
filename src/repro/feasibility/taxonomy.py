"""Table 1: the qualitative comparison of checkpointing abstraction levels.

The paper's design-space table (section 2.1) compares five
implementation levels on transparency, portability, checkpoint size,
flexibility of the checkpointing interval, and granularity.  It is
qualitative, so the reproduction is structured data plus the rendering
used by the Table 1 bench.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Rating(enum.IntEnum):
    """Ordinal scale used throughout Table 1."""

    VERY_LOW = 0
    LOW = 1
    MEDIUM = 2
    HIGH = 3

    def label(self) -> str:
        """Human-readable form of the ordinal rating."""
        return {0: "Very Low", 1: "Low", 2: "Medium", 3: "High"}[int(self)]


@dataclass(frozen=True)
class AbstractionLevel:
    """One row of Table 1."""

    name: str
    transparency: Rating
    portability: Rating
    checkpoint_size: Rating       #: higher = larger checkpoints
    flexibility: Rating           #: of the checkpointing interval
    granularity: str


ABSTRACTION_LEVELS: tuple[AbstractionLevel, ...] = (
    AbstractionLevel("Application with library support",
                     transparency=Rating.LOW, portability=Rating.HIGH,
                     checkpoint_size=Rating.LOW, flexibility=Rating.LOW,
                     granularity="Data Structure"),
    AbstractionLevel("Application with compiler support",
                     transparency=Rating.MEDIUM, portability=Rating.HIGH,
                     checkpoint_size=Rating.MEDIUM, flexibility=Rating.LOW,
                     granularity="Data Structure"),
    AbstractionLevel("Run-time library",
                     transparency=Rating.MEDIUM, portability=Rating.MEDIUM,
                     checkpoint_size=Rating.HIGH, flexibility=Rating.HIGH,
                     granularity="Memory Segment"),
    AbstractionLevel("Operating system",
                     transparency=Rating.HIGH, portability=Rating.LOW,
                     checkpoint_size=Rating.HIGH, flexibility=Rating.HIGH,
                     granularity="Memory Page"),
    AbstractionLevel("Hardware",
                     transparency=Rating.HIGH, portability=Rating.VERY_LOW,
                     checkpoint_size=Rating.HIGH, flexibility=Rating.HIGH,
                     granularity="Cache line"),
)


def render_table1() -> str:
    """Table 1 as printable text."""
    header = (f"{'Level':38s} {'Transp.':9s} {'Portab.':9s} "
              f"{'Ckpt size':10s} {'Flexib.':9s} Granularity")
    rows = [header, "-" * len(header)]
    for lvl in ABSTRACTION_LEVELS:
        rows.append(f"{lvl.name:38s} {lvl.transparency.label():9s} "
                    f"{lvl.portability.label():9s} "
                    f"{lvl.checkpoint_size.label():10s} "
                    f"{lvl.flexibility.label():9s} {lvl.granularity}")
    return "\n".join(rows)

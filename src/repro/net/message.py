"""Network messages."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

from repro.errors import NetworkError

_msg_ids = itertools.count(1)


@dataclass
class Message:
    """A point-to-point message between two ranks/nodes.

    Only metadata travels in the simulator: ``size`` drives timing and
    dirty-page effects; ``payload`` is an optional opaque object for
    tests and collectives (reductions carry values around).
    """

    src: int
    dst: int
    size: int
    tag: int = 0
    payload: Any = None
    send_time: float = field(default=0.0, compare=False)
    arrival_time: float = field(default=0.0, compare=False)
    mid: int = field(default_factory=lambda: next(_msg_ids), compare=False)

    def __post_init__(self) -> None:
        if self.size < 0:
            raise NetworkError(f"negative message size {self.size}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Message #{self.mid} {self.src}->{self.dst} tag={self.tag} "
                f"{self.size}B>")


"""Deterministic fault plans: *what* fails, *when*, and *how*.

A :class:`FaultPlan` is an ordered list of :class:`FaultEvent`\\ s.  Plans
come from three places:

- an explicit event list (targeted tests, "kill rank 1 at t=5.25");
- a seeded stochastic model (:meth:`FaultPlan.exponential` /
  :meth:`FaultPlan.weibull`): per-node failure processes drawn from
  named :class:`~repro.sim.random.RngStreams`, so the same seed always
  yields the same schedule and adding nodes never perturbs the draws of
  existing ones;
- a JSON file (:meth:`FaultPlan.from_file`), the CLI's ``--plan``.

Plans are data, not behaviour: delivery is the
:class:`~repro.faults.injector.FaultInjector`'s job.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Union

from repro.atomic import atomic_write
from repro.errors import FaultPlanError
from repro.sim.random import RngStreams


class FaultKind(enum.Enum):
    """What breaks.

    ``CRASH``
        The rank's process dies and its NIC detaches (fail-stop node
        loss) -- fatal, triggers rollback recovery.
    ``NIC``
        The rank's NIC fails permanently; the node is unreachable and
        the runtime treats it exactly like a node loss -- fatal.
    ``DISK``
        The rank's checkpoint disk loses its next write(s).  Transient:
        no recovery is triggered, but the affected global sequence never
        commits, so a later crash rolls back further (more lost work).
    ``FLIP``
        Silent media corruption: random bits flip in one already-stored
        checkpoint piece.  The write *succeeded* -- nothing poisons,
        nothing aborts -- so only integrity verification at recovery
        time can tell.
    ``TRUNCATE``
        A torn/short write silently loses the tail of a stored piece.
    ``DROP``
        A stored piece vanishes entirely (misdirected write, lost
        object), leaving a hole in the rank's recovery chain.
    """

    CRASH = "crash"
    NIC = "nic"
    DISK = "disk"
    FLIP = "flip"
    TRUNCATE = "truncate"
    DROP = "drop"

    @property
    def fatal(self) -> bool:
        return self in (FaultKind.CRASH, FaultKind.NIC)

    @property
    def corrupting(self) -> bool:
        """Silent store-corruption kinds (deliverable only when the
        victim rank has a stored piece to mangle)."""
        return self in (FaultKind.FLIP, FaultKind.TRUNCATE, FaultKind.DROP)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault."""

    time: float       #: absolute virtual time the fault fires
    kind: FaultKind
    rank: int         #: victim rank
    count: int = 1    #: DISK: consecutive failed writes; FLIP: bits flipped
    #: corruption kinds: stored sequence to mangle (None: newest stored
    #: piece of the victim rank at delivery time)
    seq: Optional[int] = None

    def __post_init__(self) -> None:
        if self.time < 0:
            raise FaultPlanError(f"fault time must be >= 0, got {self.time}")
        if self.rank < 0:
            raise FaultPlanError(f"victim rank must be >= 0, got {self.rank}")
        if self.count < 1:
            raise FaultPlanError(f"count must be >= 1, got {self.count}")
        if self.seq is not None and not self.kind.corrupting:
            raise FaultPlanError(
                f"seq targets are only for corruption faults, "
                f"not {self.kind.value}")

    def as_dict(self) -> dict:
        """JSON-ready form, the inverse of :meth:`FaultPlan.from_file`."""
        d = {"time": self.time, "kind": self.kind.value,
             "rank": self.rank, "count": self.count}
        if self.seq is not None:
            d["seq"] = self.seq
        return d


class FaultPlan:
    """An immutable, time-ordered fault schedule."""

    def __init__(self, events: Iterable[FaultEvent] = ()):
        evs = list(events)
        for ev in evs:
            if not isinstance(ev, FaultEvent):
                raise FaultPlanError(f"not a FaultEvent: {ev!r}")
        # stable deterministic order: time, then rank, then kind
        self.events: tuple[FaultEvent, ...] = tuple(
            sorted(evs, key=lambda e: (e.time, e.rank, e.kind.value)))

    # -- constructors --------------------------------------------------------

    @classmethod
    def none(cls) -> "FaultPlan":
        """The empty plan (failure-free reference runs)."""
        return cls(())

    @classmethod
    def exponential(cls, mtbf: float, nranks: int, horizon: float,
                    seed: int = 0, *, kind: FaultKind = FaultKind.CRASH,
                    max_faults: Optional[int] = None) -> "FaultPlan":
        """Per-rank Poisson failure processes with the given MTBF.

        Each rank draws exponential interarrival times from its own
        named stream of ``RngStreams(seed)``; events past ``horizon``
        are discarded.  Same ``(seed, mtbf, nranks, horizon)`` ⇒ same
        plan, always.
        """
        return cls._stochastic(mtbf, nranks, horizon, seed, kind=kind,
                               shape=1.0, max_faults=max_faults)

    @classmethod
    def weibull(cls, mtbf: float, nranks: int, horizon: float,
                seed: int = 0, *, shape: float = 0.7,
                kind: FaultKind = FaultKind.CRASH,
                max_faults: Optional[int] = None) -> "FaultPlan":
        """Weibull interarrivals (shape < 1: infant-mortality clustering,
        the empirically observed behaviour of large clusters), scaled so
        the mean interarrival is ``mtbf``."""
        if shape <= 0:
            raise FaultPlanError(f"Weibull shape must be positive, got {shape}")
        return cls._stochastic(mtbf, nranks, horizon, seed, kind=kind,
                               shape=shape, max_faults=max_faults)

    @classmethod
    def _stochastic(cls, mtbf: float, nranks: int, horizon: float,
                    seed: int, *, kind: FaultKind, shape: float,
                    max_faults: Optional[int]) -> "FaultPlan":
        import math
        if mtbf <= 0:
            raise FaultPlanError(f"MTBF must be positive, got {mtbf}")
        if nranks < 1:
            raise FaultPlanError(f"need at least one rank, got {nranks}")
        if horizon <= 0:
            raise FaultPlanError(f"horizon must be positive, got {horizon}")
        streams = RngStreams(seed)
        # Weibull(shape) has mean Gamma(1 + 1/shape); rescale to mtbf
        scale = mtbf / math.gamma(1.0 + 1.0 / shape)
        events: list[FaultEvent] = []
        for rank in range(nranks):
            rng = streams.stream(f"faults/rank{rank}")
            t = 0.0
            while True:
                t += scale * float(rng.weibull(shape))
                if t > horizon:
                    break
                events.append(FaultEvent(time=t, kind=kind, rank=rank))
        events.sort(key=lambda e: (e.time, e.rank, e.kind.value))
        if max_faults is not None:
            events = events[:max_faults]
        return cls(events)

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "FaultPlan":
        """Load a JSON plan: ``{"events": [{"time", "kind", "rank",
        "count"?}, ...]}``."""
        path = Path(path)
        try:
            raw = json.loads(path.read_text())
        except OSError as exc:
            raise FaultPlanError(f"cannot read fault plan {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"fault plan {path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict) or "events" not in raw:
            raise FaultPlanError(f"fault plan {path} lacks an 'events' list")
        events = []
        for i, entry in enumerate(raw["events"]):
            try:
                kind = FaultKind(entry["kind"])
                seq = entry.get("seq")
                events.append(FaultEvent(time=float(entry["time"]), kind=kind,
                                         rank=int(entry["rank"]),
                                         count=int(entry.get("count", 1)),
                                         seq=(None if seq is None
                                              else int(seq))))
            except (KeyError, TypeError, ValueError) as exc:
                raise FaultPlanError(
                    f"fault plan {path}, event {i}: {exc}") from exc
        return cls(events)

    def to_file(self, path: Union[str, Path]) -> None:
        """Write the plan as JSON, loadable by :meth:`from_file`."""
        atomic_write(path, json.dumps(
            {"events": [e.as_dict() for e in self.events]}, indent=2))

    # -- queries -------------------------------------------------------------

    def validate_for(self, nranks: int,
                     transport: Optional[str] = None) -> None:
        """Check every victim exists in a job of ``nranks`` ranks and
        every fault kind means something under the checkpoint
        ``transport`` (None is the estimate mode).  A diskless run
        keeps its pieces in a buddy's memory, so it has no checkpoint
        disk for a DISK fault to fail."""
        for ev in self.events:
            if ev.rank >= nranks:
                raise FaultPlanError(
                    f"fault at t={ev.time} targets rank {ev.rank}, "
                    f"but the job has only {nranks} ranks")
            if ev.kind is FaultKind.DISK and transport == "diskless":
                raise FaultPlanError(
                    f"DISK fault at t={ev.time} on rank {ev.rank}: the "
                    f"diskless transport writes no checkpoint disk")

    def after(self, time: float) -> "FaultPlan":
        """The sub-plan of events strictly later than ``time``."""
        return FaultPlan(e for e in self.events if e.time > time)

    def fatal_count(self) -> int:
        """How many crash-class events the plan holds."""
        return sum(1 for e in self.events if e.kind.fatal)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __eq__(self, other) -> bool:
        return isinstance(other, FaultPlan) and self.events == other.events

    def __hash__(self) -> int:
        return hash(self.events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FaultPlan {len(self.events)} events, {self.fatal_count()} fatal>"

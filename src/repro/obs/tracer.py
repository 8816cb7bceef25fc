"""Span/instant event tracing with deterministic sim-time timestamps.

The :class:`Tracer` records *instant* events (a fault delivered, a
timeslice boundary, a checkpoint commit) and *complete* spans (a disk
write occupying a sim-time window, a recovery's downtime, one life of a
fault run) on named tracks.  Timestamps are **virtual** (simulation)
time converted to microseconds -- the unit Chrome's ``chrome://tracing``
and Perfetto expect -- so the trace of a deterministic run is itself
deterministic: two same-seed runs produce bit-identical event streams.

Wall-clock time is recorded *alongside* (an ``args.wall`` field stamped
from a monotonic clock at record time) so slow host phases are still
visible; comparisons and golden traces strip it
(:func:`strip_wall_times`).  Pass ``wall_clock=None`` to omit it
entirely and get traces that are bit-identical including the bytes on
disk.

Two export formats:

- :meth:`Tracer.export` to ``*.json`` -- a Chrome trace object
  (``{"traceEvents": [...]}``) that loads directly in Perfetto;
- :meth:`Tracer.export` to ``*.jsonl`` -- one event per line, for
  streaming consumers and cheap appends.

Zero cost when disabled: the module-level :data:`NULL_TRACER`
(a :class:`NullTracer`) reports ``enabled = False`` and every
instrumented call site is guarded, so the hot paths never build event
dicts, format names, or touch a clock.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Iterable, Optional, Union

from repro.atomic import atomic_write
from repro.errors import ObservabilityError

#: categories recorded by default (everything but the per-event firehose)
DEFAULT_CATEGORIES = frozenset({
    "engine", "timeslice", "checkpoint", "net", "storage", "fault",
    "recovery", "exec",
})

#: opt-in: one instant per dispatched engine event (huge traces; enable
#: explicitly with ``Tracer(categories={..., ENGINE_DISPATCH})``)
ENGINE_DISPATCH = "engine.dispatch"


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    Call sites guard on :attr:`enabled` (or :meth:`wants`), so with this
    tracer installed no event dict is ever built.
    """

    enabled = False
    __slots__ = ()

    def wants(self, cat: str) -> bool:
        """Always False: no category is recorded."""
        return False

    def instant(self, *args, **kwargs) -> None:
        """Discard the event."""

    def complete(self, *args, **kwargs) -> None:
        """Discard the span."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<NullTracer>"


#: the shared no-op instance (stateless, safe to share everywhere)
NULL_TRACER = NullTracer()


class Tracer:
    """Records spans and instant events in Chrome-trace form.

    Parameters
    ----------
    categories:
        Which event categories to record; ``None`` means
        :data:`DEFAULT_CATEGORIES`.  Events in other categories are
        dropped at the call.
    wall_clock:
        Monotonic clock stamped into each event's ``args.wall``
        (seconds since the tracer was created).  ``None`` omits wall
        times, making the exported bytes fully deterministic.
    """

    enabled = True

    def __init__(self, categories: Optional[Iterable[str]] = None,
                 wall_clock=time.perf_counter):
        self.categories = (DEFAULT_CATEGORIES if categories is None
                           else frozenset(categories))
        #: recorded events, in recording order (Chrome-trace dicts)
        self.events: list[dict] = []
        self._tracks: dict[str, int] = {}
        self._wall = wall_clock
        self._wall0 = wall_clock() if wall_clock is not None else 0.0

    # -- recording ----------------------------------------------------------

    def wants(self, cat: str) -> bool:
        """True when events of this category would be recorded."""
        return cat in self.categories

    def instant(self, name: str, cat: str, t: float, *,
                track: str = "sim", **args) -> None:
        """Record an instant event at virtual time ``t`` (seconds)."""
        if cat not in self.categories:
            return
        ev = {"name": name, "cat": cat, "ph": "i", "ts": t * 1e6,
              "pid": 1, "tid": self._tid(track), "s": "t"}
        self._stamp(ev, args)

    def complete(self, name: str, cat: str, t: float, dur: float, *,
                 track: str = "sim", **args) -> None:
        """Record a complete span ``[t, t+dur]`` in virtual seconds."""
        if cat not in self.categories:
            return
        ev = {"name": name, "cat": cat, "ph": "X", "ts": t * 1e6,
              "dur": dur * 1e6, "pid": 1, "tid": self._tid(track)}
        self._stamp(ev, args)

    def _tid(self, track: str) -> int:
        tid = self._tracks.get(track)
        if tid is None:
            tid = len(self._tracks) + 1
            self._tracks[track] = tid
        return tid

    def _stamp(self, ev: dict, args: dict) -> None:
        if self._wall is not None:
            args = dict(args)
            args["wall"] = self._wall() - self._wall0
        if args:
            ev["args"] = args
        self.events.append(ev)

    def __len__(self) -> int:
        return len(self.events)

    # -- export -------------------------------------------------------------

    def _metadata_events(self) -> list[dict]:
        """Chrome ``M`` events naming the process and every track."""
        meta = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
                 "args": {"name": "repro-sim"}}]
        for track, tid in sorted(self._tracks.items(), key=lambda kv: kv[1]):
            meta.append({"name": "thread_name", "ph": "M", "pid": 1,
                         "tid": tid, "args": {"name": track}})
        return meta

    def to_chrome(self) -> dict:
        """The full trace as a Chrome-trace JSON object."""
        return {
            "traceEvents": self._metadata_events() + self.events,
            "displayTimeUnit": "ms",
            "otherData": {"clock": "sim-microseconds", "format_version": 1},
        }

    def export(self, path: Union[str, Path]) -> Path:
        """Write the trace; ``*.jsonl`` streams, anything else is Chrome
        JSON.  Returns the path written."""
        path = Path(path)
        if path.is_dir():
            raise ObservabilityError(
                f"trace target {path} is a directory; give a file path")
        if path.parent and not path.parent.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
        if path.suffix == ".jsonl":
            atomic_write(path, (
                json.dumps(ev, sort_keys=True) + "\n"
                for evs in (self._metadata_events(), self.events)
                for ev in evs))
        else:
            atomic_write(path, json.dumps(self.to_chrome(), sort_keys=True,
                                          indent=1) + "\n")
        return path

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Tracer events={len(self.events)} "
                f"tracks={len(self._tracks)}>")


def strip_wall_times(events: list[dict]) -> list[dict]:
    """A copy of ``events`` with every ``args.wall`` field removed --
    the sim-time-only view two same-seed runs must agree on exactly."""
    out = []
    for ev in events:
        args = ev.get("args")
        if args and "wall" in args:
            ev = dict(ev)
            args = {k: v for k, v in args.items() if k != "wall"}
            if args:
                ev["args"] = args
            else:
                ev.pop("args")
        out.append(ev)
    return out

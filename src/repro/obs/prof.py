"""Host-side engine profiler: where does the *wall* time go?

The tracer answers "where did the simulated time go"; this module
answers the other question the ROADMAP keeps asking -- which event
kinds and subsystems burn the host CPU.  An :class:`EngineProfiler`
rides the :meth:`~repro.sim.Engine.add_event_hook` seam: the hook fires
after every dispatched event, and the wall time *since the previous
hook call* is attributed to the event that just ran.  Because the gaps
between hook calls tile the whole run (setup before the first event and
teardown after the last land in explicit ``host.setup`` /
``host.teardown`` buckets), the per-category self times sum to ~100% of
the measured wall window -- there is no unattributed residue to hide a
hot spot in.

Attribution is three-dimensional: **subsystem** (sim, net, mpi,
checkpoint, storage, faults, app, host) x **event kind**
(``process.resume``, ``message.delivery``, ``transport.frame``, ...) x
**rank group** (``r0-63``, ...), with self/cumulative accounting:
host work wrapped in :meth:`EngineProfiler.section` (e.g. the
per-iteration region-allocation churn in :class:`~repro.apps.phases.
AllocPhase`) is charged to its own bucket's self time and subtracted
from the enclosing event's self time, so "generator resume" and "region
allocation" are separable even though one runs inside the other.

The profiler costs nothing when absent: ``Engine.__init__`` attaches it
only when ``obs.profiler`` is not None, and the hot loop's hook check
is the pre-existing one-truthiness-test guard.  Wall times are host
measurements and therefore *not* deterministic; event and section
counts are, and the pinned tests compare only those.

Output: :meth:`EngineProfiler.profile` (a JSON-able dict, schema
``repro.obs.profile/1``), :meth:`EngineProfiler.export` (the
``--profile-out`` file), and :func:`render_profile` (the ``repro obs
top`` table).
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Optional, Union

from repro.atomic import atomic_write
from repro.errors import ObservabilityError

#: the artifact schema tag ``repro obs top`` / ``obs diff`` key off
PROFILE_SCHEMA = "repro.obs.profile/1"

#: function qualname -> (subsystem, event kind, rank-extraction mode).
#: Modes: "self_name" parses ``...r<N>`` off the bound object's name,
#: "arg0_rank" reads an integer first argument, "msg_dst" reads a
#: Message destination, "item_proc" reads a (process, value) wake item,
#: "run_batch" re-classifies a coalesced Engine._run_batch event by its
#: inner callable (so batched deliveries and resumes land in the same
#: categories their per-item events would), None means unranked.
_QUALNAME_KINDS = {
    "SimProcess._resume": ("sim", "process.resume", "self_name"),
    "_dispatch_resume": ("sim", "process.resume", "item_proc"),
    "Engine._run_batch": ("sim", "batch.dispatch", "run_batch"),
    "TimerHub._fire_group": ("sim", "timer.epoch", None),
    "Network._deliver": ("net", "message.delivery", "msg_dst"),
    "_finish_recv": ("mpi", "message.copy", None),
    "FaultInjector._deliver": ("faults", "fault.delivery", None),
    "_FramedTransport._pump": ("checkpoint", "transport.frame", None),
    "_FramedTransport._piece_durable": ("storage", "sink.write",
                                        "arg0_rank"),
    "CowWriteout.finish": ("checkpoint", "cow.finish", None),
}


class _Bucket:
    """One (subsystem, kind, rank-group) accumulation cell."""

    __slots__ = ("count", "self_s", "cum_s")

    def __init__(self):
        self.count = 0
        self.self_s = 0.0
        self.cum_s = 0.0

    def add(self, dt: float, inner: float = 0.0) -> None:
        self.count += 1
        self.cum_s += dt
        self.self_s += dt - inner if dt > inner else 0.0


class _Section:
    """Context manager for one host-work section (reusable shape, one
    allocation per entry -- sections run per phase, not per event)."""

    __slots__ = ("_prof", "_bucket", "_t0", "_inner0")

    def __init__(self, prof: "EngineProfiler", bucket: _Bucket):
        self._prof = prof
        self._bucket = bucket

    def __enter__(self):
        prof = self._prof
        self._t0 = prof._clock()
        self._inner0 = prof._inner
        return self

    def __exit__(self, exc_type, exc, tb):
        prof = self._prof
        now = prof._clock()
        dt = now - self._t0
        child = prof._inner - self._inner0
        self._bucket.add(dt, child)
        prof._inner = self._inner0 + dt
        prof.sections += 1
        return False


class EngineProfiler:
    """Attributes host wall time per event kind x subsystem x rank group.

    Construct one, put it on an :class:`~repro.obs.Observability`
    (``Observability(profiler=EngineProfiler())``), and every
    :class:`~repro.sim.Engine` built with that obs attaches it -- the
    fault driver's per-life engines all feed the same profile.
    """

    def __init__(self, *, rank_group_size: int = 64, clock=None):
        if rank_group_size < 1:
            raise ObservabilityError(
                f"rank_group_size must be >= 1, got {rank_group_size}")
        self.rank_group_size = int(rank_group_size)
        self._clock = time.perf_counter if clock is None else clock
        #: (subsystem, kind, rank_group) -> _Bucket
        self._buckets: dict[tuple, _Bucket] = {}
        #: id(function) -> (function, subsystem, kind, mode); the
        #: function reference pins the id against reuse
        self._fn_cache: dict = {}
        self._group_labels: dict[Optional[int], str] = {None: "-"}
        now = self._clock()
        self._t0 = now
        self._last = now
        self._inner = 0.0     # section seconds inside the current event
        self._fresh = True    # next gap is host setup, not an event
        self.events = 0
        self.sections = 0

    # -- wiring --------------------------------------------------------------

    def attach(self, engine) -> None:
        """Hook into one engine.  The wall gap from here to the engine's
        first event is host setup (cluster build, instrumentation
        install), not event work."""
        self._fresh = True
        engine.add_event_hook(self._on_event)

    def _on_event(self, ev) -> None:
        now = self._clock()
        dt = now - self._last
        self._last = now
        inner = self._inner
        if inner:
            self._inner = 0.0
        self.events += 1
        if self._fresh:
            self._fresh = False
            bucket = self._bucket("host", "setup", "-")
        else:
            bucket = self._event_bucket(ev)
        bucket.add(dt, inner)

    # -- classification ------------------------------------------------------

    def _bucket(self, subsystem: str, kind: str, group: str) -> _Bucket:
        key = (subsystem, kind, group)
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = _Bucket()
        return bucket

    def _event_bucket(self, ev) -> _Bucket:
        fn = ev.fn
        func = getattr(fn, "__func__", fn)
        entry = self._fn_cache.get(id(func))
        if entry is None:
            entry = self._classify(func)
            self._fn_cache[id(func)] = entry
        _, subsystem, kind, mode = entry
        rank = None
        if mode is not None:
            if mode == "self_name":
                rank = _rank_from_name(fn.__self__.name)
            elif mode == "arg0_rank":
                args = ev.args
                if args and type(args[0]) is int:
                    rank = args[0]
            elif mode == "msg_dst":
                args = ev.args
                if args:
                    rank = getattr(args[0], "dst", None)
            elif mode == "item_proc":
                args = ev.args
                if args and args[0]:
                    rank = _rank_from_name(args[0][0].name)
            elif mode == "run_batch":
                # a coalesced batch: attribute to the *inner* callable's
                # category (message.delivery, process.resume, ...) so a
                # batch profiles under its per-item event's name
                inner_fn, items = ev.args
                ifunc = getattr(inner_fn, "__func__", inner_fn)
                ientry = self._fn_cache.get(id(ifunc))
                if ientry is None:
                    ientry = self._classify(ifunc)
                    self._fn_cache[id(ifunc)] = ientry
                _, subsystem, kind, imode = ientry
                if items:
                    if imode == "msg_dst":
                        rank = getattr(items[0], "dst", None)
                    elif imode == "item_proc":
                        rank = _rank_from_name(items[0][0].name)
            elif mode == "future":
                subsystem, kind, rank = _classify_future(fn.__self__)
        return self._bucket(subsystem, kind, self._group(rank))

    def _classify(self, func) -> tuple:
        qualname = getattr(func, "__qualname__", None) or "event"
        if qualname == "Future.resolve":
            # classification depends on the future's label (checkpoint
            # sink writes vs generic completions): resolved per event
            return (func, "sim", "future.resolve", "future")
        known = _QUALNAME_KINDS.get(qualname)
        if known is not None:
            return (func, known[0], known[1], known[2])
        module = getattr(func, "__module__", "") or ""
        parts = module.split(".")
        subsystem = parts[1] if len(parts) > 1 and parts[0] == "repro" else "host"
        return (func, subsystem, qualname, None)

    def _group(self, rank: Optional[int]) -> str:
        label = self._group_labels.get(rank)
        if label is None:
            gs = self.rank_group_size
            lo = (rank // gs) * gs
            label = self._group_labels[rank] = f"r{lo}-{lo + gs - 1}"
        return label

    # -- sections ------------------------------------------------------------

    def section(self, name: str, rank: Optional[int] = None) -> _Section:
        """A context manager charging the wrapped host work to its own
        bucket (``name`` is ``subsystem.kind``, e.g. ``app.region_alloc``)
        and *subtracting* it from the enclosing event's self time."""
        subsystem, dot, kind = name.partition(".")
        if not dot:
            subsystem, kind = "app", name
        return _Section(self, self._bucket(subsystem, kind,
                                           self._group(rank)))

    # -- output --------------------------------------------------------------

    def profile(self) -> dict:
        """The attribution as a JSON-able dict (schema
        ``repro.obs.profile/1``).  Closes the wall window at call time:
        the gap since the last event becomes ``host.teardown``."""
        now = self._clock()
        if now > self._last:
            self._bucket("host", "teardown", "-").add(now - self._last)
            self._last = now
        total = self._last - self._t0
        attributed = sum(b.self_s for b in self._buckets.values())
        categories = [
            {"subsystem": sub, "kind": kind, "ranks": group,
             "count": b.count, "self_s": b.self_s, "cum_s": b.cum_s}
            for (sub, kind, group), b in sorted(
                self._buckets.items(),
                key=lambda kv: (-kv[1].self_s, kv[0]))
        ]
        subsystems: dict[str, dict] = {}
        for cat in categories:
            agg = subsystems.setdefault(
                cat["subsystem"], {"count": 0, "self_s": 0.0, "cum_s": 0.0})
            agg["count"] += cat["count"]
            agg["self_s"] += cat["self_s"]
            agg["cum_s"] += cat["cum_s"]
        return {
            "schema": PROFILE_SCHEMA,
            "wall_total_s": total,
            "wall_attributed_s": attributed,
            "coverage": attributed / total if total > 0 else 1.0,
            "events": self.events,
            "sections": self.sections,
            "rank_group_size": self.rank_group_size,
            "categories": categories,
            "subsystems": {k: subsystems[k] for k in sorted(subsystems)},
        }

    def export(self, path: Union[str, Path]) -> dict:
        """Write :meth:`profile` as JSON; returns the profile dict."""
        path = Path(path)
        if path.parent and not path.parent.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
        prof = self.profile()
        atomic_write(path, json.dumps(prof, indent=2) + "\n")
        return prof

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<EngineProfiler events={self.events} "
                f"buckets={len(self._buckets)}>")


def _rank_from_name(name: str) -> Optional[int]:
    """``"sage.rank12"`` or ``"ckpt-disk.r12"`` -> 12 (None when no
    rank suffix is present)."""
    for sep in (".rank", ".r"):
        head, found, tail = name.rpartition(sep)
        if found:
            try:
                return int(tail)
            except ValueError:
                continue
    return None


def _classify_future(future) -> tuple:
    """Label-based classification of ``Future.resolve`` events: the
    checkpoint sink writes are labelled ``ckpt-<sink>.r<N>.write#<op>``."""
    label = getattr(future, "label", "") or ""
    if ".write#" in label:
        return ("storage", "sink.write",
                _rank_from_name(label.split(".write#", 1)[0]))
    return ("sim", "future.resolve", None)


def load_profile(path: Union[str, Path]) -> dict:
    """Read a ``--profile-out`` artifact, validating the schema."""
    path = Path(path)
    if not path.is_file():
        raise ObservabilityError(f"no profile file at {path}")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ObservabilityError(f"bad profile {path}: {exc}") from exc
    if not isinstance(data, dict) or data.get("schema") != PROFILE_SCHEMA:
        raise ObservabilityError(
            f"{path} is not a {PROFILE_SCHEMA} artifact (wrote it with "
            f"--profile-out?)")
    return data


def render_profile(profile: dict, top: int = 20, by: str = "self") -> str:
    """The ``repro obs top`` table over one profile dict."""
    if by not in ("self", "cum", "count"):
        raise ObservabilityError(f"unknown sort key {by!r}")
    total = profile.get("wall_total_s", 0.0)
    lines = [
        f"profile: {profile.get('events', 0)} events, "
        f"{profile.get('sections', 0)} section(s), "
        f"{total:.3f}s wall, "
        f"{profile.get('coverage', 0.0) * 100.0:.1f}% attributed",
    ]
    categories = list(profile.get("categories", []))
    if not categories:
        lines.append("(no categories recorded)")
        return "\n".join(lines)
    keys = {"self": "self_s", "cum": "cum_s", "count": "count"}
    sort_key = keys[by]
    categories.sort(key=lambda c: (-c.get(sort_key, 0),
                                   c.get("subsystem", ""), c.get("kind", "")))
    lines.append("")
    lines.append(f"top categories by {by} "
                 f"(showing {min(top, len(categories))} of {len(categories)}):")
    lines.append(f"  {'subsystem':12s} {'kind':24s} {'ranks':>10s} "
                 f"{'count':>9s} {'self':>9s} {'cum':>9s} {'self%':>7s}")
    for cat in categories[:top]:
        share = cat["self_s"] / total * 100.0 if total > 0 else 0.0
        lines.append(f"  {cat['subsystem']:12s} {cat['kind']:24s} "
                     f"{cat['ranks']:>10s} {cat['count']:9d} "
                     f"{cat['self_s']:8.3f}s {cat['cum_s']:8.3f}s "
                     f"{share:6.1f}%")
    subsystems = profile.get("subsystems", {})
    if subsystems:
        lines.append("")
        lines.append("by subsystem (self time):")
        ranked = sorted(subsystems.items(),
                        key=lambda kv: (-kv[1].get("self_s", 0.0), kv[0]))
        for name, agg in ranked:
            share = agg["self_s"] / total * 100.0 if total > 0 else 0.0
            lines.append(f"  {name:12s} {agg['self_s']:8.3f}s {share:6.1f}%  "
                         f"({agg['count']} events)")
    return "\n".join(lines)

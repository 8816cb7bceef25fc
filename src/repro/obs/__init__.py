"""Unified observability: tracing, metrics, and profiling probes.

The paper's argument is built on *measuring* a running system; this
package makes the reproduction's own runtime measurable.  One
:class:`Observability` object carries

- a :class:`Tracer` (or the no-op :data:`NULL_TRACER`) recording spans
  and instant events in deterministic sim-time, exportable as Chrome /
  Perfetto JSON or JSONL (:mod:`repro.obs.tracer`);
- a :class:`MetricsRegistry` of counters/gauges/histograms with dotted
  per-subsystem namespaces (:mod:`repro.obs.metrics`);
- optional wall-time :func:`probe` context managers and a live
  :class:`ProgressReporter` (:mod:`repro.obs.probe`).

It threads through the stack via :class:`~repro.sim.Engine` -- every
instrumented component reaches its engine's ``obs`` attribute -- so one
object observes a whole experiment, and :data:`NULL_OBS` (the default)
keeps every trace site a single guarded branch:

    tracer = engine.obs.tracer
    if tracer.enabled and tracer.wants("storage"):
        tracer.complete("disk.write", "storage", start, duration)

Metrics need no call site: :func:`~repro.obs.publish.publish_run`
reads the components' own counts once a run (or fault-run life) ends.

Determinism contract: all trace timestamps/durations are virtual time,
so same-seed runs produce bit-identical sim-time event streams (wall
clocks live only in ``args.wall``, stripped by
:func:`~repro.obs.tracer.strip_wall_times`); and a disabled
observability object changes no simulated behavior -- golden traces are
byte-identical with or without the plumbing.
"""

from repro.obs.metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                               WindowedSeries)
from repro.obs.probe import ProgressReporter, probe
from repro.obs.prof import EngineProfiler, load_profile, render_profile
from repro.obs.tracer import (DEFAULT_CATEGORIES, ENGINE_DISPATCH,
                              NULL_TRACER, NullTracer, Tracer,
                              strip_wall_times)
from repro.obs.view import load_trace_events, summarize_trace


class Observability:
    """One experiment's tracer + metrics + optional progress feed.

    Disabled (``enabled = False``) unless a real tracer, a metrics
    registry, or a progress reporter is supplied -- construct with
    ``Observability(tracer=Tracer(), metrics=MetricsRegistry())`` to
    turn everything on.  Instrumented call sites are guarded on
    :attr:`enabled`, so the default :data:`NULL_OBS` costs one
    attribute read per site.
    """

    __slots__ = ("tracer", "metrics", "progress", "profiler", "enabled")

    def __init__(self, tracer=None, metrics=None, progress=None,
                 profiler=None):
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.metrics = MetricsRegistry() if metrics is None else metrics
        self.progress = progress
        #: an EngineProfiler, attached by every Engine built with this
        #: obs (None: the hot loop keeps its empty-hook-list fast path)
        self.profiler = profiler
        self.enabled = bool(self.tracer.enabled or metrics is not None
                            or progress is not None or profiler is not None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "enabled" if self.enabled else "disabled"
        return (f"<Observability {state} tracer={self.tracer!r} "
                f"metrics={self.metrics!r}>")


#: the shared disabled instance every Engine starts with
NULL_OBS = Observability()

__all__ = [
    "Counter",
    "DEFAULT_CATEGORIES",
    "ENGINE_DISPATCH",
    "EngineProfiler",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_OBS",
    "NULL_TRACER",
    "NullTracer",
    "Observability",
    "ProgressReporter",
    "Tracer",
    "WindowedSeries",
    "load_profile",
    "load_trace_events",
    "probe",
    "render_profile",
    "strip_wall_times",
    "summarize_trace",
]

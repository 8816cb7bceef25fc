"""Counters, gauges, and histograms with per-subsystem namespaces.

A :class:`MetricsRegistry` is a flat dictionary of dotted metric names
(``checkpoint.bytes_captured``, ``storage.ckpt-disk.r0.bytes_written``)
to one of three instrument kinds:

- :class:`Counter` -- monotonically increasing totals;
- :class:`Gauge` -- last-write-wins values (engine stats snapshots),
  with :meth:`Gauge.add` for delta updates;
- :class:`Histogram` -- streaming count/sum/min/max of observations
  (wall-time probe durations) plus p50/p95/p99 from a bounded,
  deterministically decimated reservoir;
- :class:`WindowedSeries` -- a ring of fixed sim-time windows
  (``registry.series()``), so rates like drain throughput or dirty
  pages can be exported *over sim time* instead of as one final total.

A simulation run's counts reach the registry once, when it ends
(:mod:`repro.obs.publish`); sweep counters and wall-time probes
record as they go.  Snapshots are plain dicts (sorted by name) for JSON dumps,
:meth:`MetricsRegistry.render_text` is the human-readable form, and
:meth:`MetricsRegistry.dump_series` writes every windowed series as
per-window JSONL.

Determinism note: metric *values* derived from simulation state are
deterministic; histograms fed wall-clock durations are not, which is
why trace comparisons live in the tracer (sim-time) and not here.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Union

from repro.atomic import atomic_write
from repro.errors import ObservabilityError


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "value")
    kind = "counter"

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: Union[int, float] = 1) -> None:
        """Add ``amount`` (>= 0) to the running total."""
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name!r} cannot decrease (inc by {amount})")
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A last-write-wins value."""

    __slots__ = ("name", "value")
    kind = "gauge"

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def set(self, value: Union[int, float]) -> None:
        """Replace the current value."""
        self.value = value

    def add(self, delta: Union[int, float]) -> None:
        """Apply a delta (positive or negative) to the current value."""
        self.value += delta

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Gauge {self.name}={self.value}>"


#: observations retained for quantile estimation; past this the
#: reservoir is decimated (every 2nd sample kept, stride doubled)
_RESERVOIR_CAP = 512


class Histogram:
    """Streaming summary of observations: count, sum, min, max, mean,
    and p50/p95/p99 from a bounded reservoir.

    The reservoir decimates deterministically -- every ``stride``-th
    observation is kept, and when it fills, every second retained sample
    is dropped and the stride doubles -- so it stays O(1) memory, covers
    the whole stream uniformly, and two identical observation streams
    yield identical quantiles (no randomness).
    """

    __slots__ = ("name", "count", "total", "min", "max",
                 "_reservoir", "_stride")
    kind = "histogram"

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None
        self._reservoir: list[float] = []
        self._stride = 1

    def observe(self, value: float) -> None:
        """Fold one observation into the running summary."""
        if self.count % self._stride == 0:
            res = self._reservoir
            res.append(value)
            if len(res) >= _RESERVOIR_CAP:
                del res[::2]
                self._stride *= 2
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> Union[float, None]:
        """Nearest-rank quantile estimate from the reservoir (None when
        no observations were recorded)."""
        if not 0.0 <= q <= 1.0:
            raise ObservabilityError(f"quantile must be in [0, 1], got {q}")
        if not self._reservoir:
            return None
        ordered = sorted(self._reservoir)
        n = len(ordered)
        rank = max(1, math.ceil(q * n))
        return ordered[min(n - 1, rank - 1)]

    @property
    def p50(self) -> Union[float, None]:
        return self.quantile(0.50)

    @property
    def p95(self) -> Union[float, None]:
        return self.quantile(0.95)

    @property
    def p99(self) -> Union[float, None]:
        return self.quantile(0.99)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Histogram {self.name} n={self.count} mean={self.mean:.6f}>"


class WindowedSeries:
    """A ring of fixed-width sim-time windows, each a count/sum/min/max
    reservoir: ``record(t, value)`` folds a sample into the window
    containing sim-time ``t``; the oldest windows are evicted past
    ``capacity``.  Values derived from simulation state are
    deterministic, so two same-seed runs export identical series."""

    __slots__ = ("name", "window", "capacity", "count", "total", "_buckets")
    kind = "series"

    def __init__(self, name: str, window: float = 1.0, capacity: int = 512):
        if window <= 0:
            raise ObservabilityError(
                f"series {name!r}: window must be positive, got {window}")
        if capacity < 1:
            raise ObservabilityError(
                f"series {name!r}: capacity must be >= 1, got {capacity}")
        self.name = name
        self.window = float(window)
        self.capacity = int(capacity)
        self.count = 0
        self.total = 0.0
        #: per-window [index, count, sum, min, max], ascending index
        self._buckets: list[list] = []

    def record(self, t: float, value: float = 1.0) -> None:
        """Fold one sample at sim-time ``t`` into its window."""
        self.count += 1
        self.total += value
        index = int(t // self.window)
        buckets = self._buckets
        if buckets:
            last = buckets[-1]
            if last[0] == index:
                last[1] += 1
                last[2] += value
                if value < last[3]:
                    last[3] = value
                if value > last[4]:
                    last[4] = value
                return
            if index < last[0]:
                # rare out-of-order sample (multi-engine fault runs):
                # fold into the window if still retained, else drop
                for b in reversed(buckets):
                    if b[0] == index:
                        b[1] += 1
                        b[2] += value
                        if value < b[3]:
                            b[3] = value
                        if value > b[4]:
                            b[4] = value
                        return
                    if b[0] < index:
                        break
                return
        buckets.append([index, 1, value, value, value])
        if len(buckets) > self.capacity:
            del buckets[0]

    def windows(self) -> list[dict]:
        """The retained windows as JSON-able dicts, oldest first."""
        w = self.window
        return [{"index": b[0], "t_start": b[0] * w, "t_end": (b[0] + 1) * w,
                 "count": b[1], "sum": b[2], "min": b[3], "max": b[4]}
                for b in self._buckets]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<WindowedSeries {self.name} window={self.window} "
                f"windows={len(self._buckets)} n={self.count}>")


class MetricsRegistry:
    """Get-or-create registry of named metrics."""

    def __init__(self):
        self._metrics: dict[str, object] = {}

    # -- get-or-create ------------------------------------------------------

    def counter(self, name: str) -> Counter:
        """The counter registered under ``name`` (created on first use)."""
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """The gauge registered under ``name`` (created on first use)."""
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        """The histogram registered under ``name`` (created on first use)."""
        return self._get(name, Histogram)

    def series(self, name: str, window: float = 1.0,
               capacity: int = 512) -> WindowedSeries:
        """The windowed series registered under ``name`` (created on
        first use); re-requesting with a different window is an error --
        a series' buckets are meaningless across window sizes."""
        metric = self._metrics.get(name)
        if metric is None:
            metric = WindowedSeries(name, window=window, capacity=capacity)
            self._metrics[name] = metric
        elif type(metric) is not WindowedSeries:
            raise ObservabilityError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"requested series")
        elif metric.window != window:
            raise ObservabilityError(
                f"series {name!r} already registered with window "
                f"{metric.window}, requested {window}")
        return metric

    def _get(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name)
            self._metrics[name] = metric
        elif type(metric) is not cls:
            raise ObservabilityError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"requested {cls.kind}")
        return metric

    # -- introspection ------------------------------------------------------

    def names(self) -> list[str]:
        """Every registered metric name, sorted."""
        return sorted(self._metrics)

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def snapshot(self) -> dict[str, dict]:
        """All metrics as plain JSON-able values, sorted by name."""
        out = {}
        for name in self.names():
            m = self._metrics[name]
            if isinstance(m, Histogram):
                out[name] = {"kind": m.kind, "count": m.count,
                             "sum": m.total, "min": m.min, "max": m.max,
                             "mean": m.mean, "p50": m.p50, "p95": m.p95,
                             "p99": m.p99}
            elif isinstance(m, WindowedSeries):
                out[name] = {"kind": m.kind, "window": m.window,
                             "count": m.count, "sum": m.total,
                             "windows": len(m._buckets)}
            else:
                out[name] = {"kind": m.kind, "value": m.value}
        return out

    def render_text(self) -> str:
        """One metric per line, aligned, for terminals and .txt dumps."""
        lines = []
        for name, entry in self.snapshot().items():
            if entry["kind"] == "histogram":
                lines.append(
                    f"{name:52s} n={entry['count']:<8d} "
                    f"mean={entry['mean']:.6g} min={entry['min']} "
                    f"max={entry['max']} p50={entry['p50']} "
                    f"p95={entry['p95']} p99={entry['p99']}")
            elif entry["kind"] == "series":
                lines.append(
                    f"{name:52s} n={entry['count']:<8d} "
                    f"sum={entry['sum']:.6g} window={entry['window']:g}s "
                    f"windows={entry['windows']}")
            else:
                lines.append(f"{name:52s} {entry['value']}")
        return "\n".join(lines)

    def dump(self, path: Union[str, Path]) -> Path:
        """Write a snapshot; ``*.txt`` renders text, anything else JSON."""
        path = Path(path)
        if path.is_dir():
            raise ObservabilityError(
                f"metrics target {path} is a directory; give a file path")
        if path.parent and not path.parent.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
        if path.suffix == ".txt":
            atomic_write(path, self.render_text() + "\n")
        else:
            atomic_write(path, json.dumps(self.snapshot(), indent=2,
                                          sort_keys=True) + "\n")
        return path

    def all_series(self) -> list[WindowedSeries]:
        """Every registered windowed series, sorted by name."""
        return [self._metrics[name] for name in self.names()
                if isinstance(self._metrics[name], WindowedSeries)]

    def dump_series(self, path: Union[str, Path]) -> Path:
        """Write every windowed series as JSONL: one line per retained
        window, ``{"series", "window", "index", "t_start", "t_end",
        "count", "sum", "min", "max"}``, grouped by series name."""
        path = Path(path)
        if path.is_dir():
            raise ObservabilityError(
                f"series target {path} is a directory; give a file path")
        if path.parent and not path.parent.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
        lines = []
        for series in self.all_series():
            for win in series.windows():
                win = {"series": series.name, "window": series.window, **win}
                lines.append(json.dumps(win, sort_keys=True))
        atomic_write(path, "\n".join(lines) + ("\n" if lines else ""))
        return path

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MetricsRegistry metrics={len(self._metrics)}>"

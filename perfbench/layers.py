"""Per-layer metrics of a traced run, named ``<module>.<metric>``.

Counts are exact and repeat run to run; ``*_s`` figures are host
seconds unless the name says sim (``stall_time_s`` and
``contention_delay_s`` are simulated waits).  ``self_s`` is a layer's
self time: its spans' durations minus what their child spans cover.
Inclusive timings (``capture_s``, ``put_s``, ...) sum the outermost
spans of the named calls in the run's own process; self times and
counts also include the pool workers a sweep forks.
"""

from __future__ import annotations

import numpy as np

from tracing import SpanRecorder, merge_worker_summaries

#: name -> unit, as BENCHMARK.json lists them
PER_LAYER = {
    "sim.events": "count", "sim.cancelled": "count",
    "sim.compactions": "count", "sim.timer_epochs": "count",
    "sim.self_s": "s",
    "apps.phase_steps": "count", "apps.self_s": "s",
    "mpi.sends": "count", "mpi.recvs": "count", "mpi.collectives": "count",
    "mpi.self_s": "s",
    "net.messages": "count", "net.bytes": "B", "net.deposits": "count",
    "net.storage_frames": "count", "net.contention_delay_s": "s",
    "net.contended_messages": "count", "net.self_s": "s",
    "mem.cpu_writes": "count", "mem.dma_writes": "count",
    "mem.maps": "count", "mem.pages_reprotected": "count",
    "mem.self_s": "s",
    "instrument.timeslices": "count", "instrument.iws_pages": "count",
    "instrument.faults": "count",
    "checkpoint.captures": "count", "checkpoint.capture_s": "s",
    "checkpoint.capture_p50_ms": "ms", "checkpoint.capture_p99_ms": "ms",
    "checkpoint.pages_captured": "count",
    "checkpoint.bytes_captured": "B", "checkpoint.commits": "count",
    "checkpoint.submits": "count", "checkpoint.submit_s": "s",
    "checkpoint.frames": "count", "checkpoint.stall_time_s": "s",
    "checkpoint.restarts": "count", "checkpoint.restart_s": "s",
    "checkpoint.replay_s": "s", "checkpoint.committed_byte_ratio": "ratio",
    "checkpoint.self_s": "s",
    "storage.puts": "count", "storage.put_s": "s",
    "storage.chain_verifies": "count", "storage.verify_s": "s",
    "storage.pieces_verified": "count",
    "storage.corruptions_detected": "count", "storage.archive_s": "s",
    "storage.archive_bytes": "B", "storage.self_s": "s",
    "faults.crashes": "count", "faults.flips": "count",
    "faults.lives": "count",
    "exec.points": "count", "exec.cache_hits": "count",
    "exec.cache_misses": "count", "exec.cache_hit_ratio": "ratio",
    "exec.run_many_s": "s", "exec.warm_sweep_s": "s", "exec.self_s": "s",
    "trace.spans": "count", "trace.traced_wall_s": "s",
    "trace.untraced_wall_s": "s", "trace.overhead_ratio": "ratio",
    "host.raw_wall_s": "s", "host.probe_ms": "ms",
}

#: layers whose self time is reported, in the order of the share table
LAYERS = ("sim", "apps", "mpi", "net", "mem", "checkpoint", "storage",
          "exec")

_CAPTURE = ("checkpoint.FullCheckpointer.capture",
            "checkpoint.IncrementalCheckpointer.capture",
            "checkpoint.DcpCheckpointer.capture")


def layer_metrics(rec: SpanRecorder, outcome, marks, work) -> dict:
    """Every :data:`PER_LAYER` metric of one traced process (the trace
    totals are filled in by the parent)."""
    workers = merge_worker_summaries(work)
    self_s = dict(zip(rec.names, rec.self_s))
    calls = rec.calls()
    counts = dict(rec.counts)
    engines = marks.engine_counts()
    for w in workers:
        for table, part in ((self_s, w["self_s"]), (calls, w["calls"]),
                            (counts, w["counts"])):
            for k, v in part.items():
                table[k] = table.get(k, 0) + v
        for k, v in w["engines"].items():
            engines[k] += v

    def layer_self(layer: str) -> float:
        return sum(v for k, v in self_s.items()
                   if k.split(".", 1)[0] == layer)

    def n_calls(*names: str) -> int:
        return sum(calls.get(n, 0) for n in names)

    def inclusive(*names: str) -> float:
        return float(rec.outermost(names).sum())

    got = outcome.counts
    captures = rec.outermost(_CAPTURE) * 1e3
    captured = counts.get("checkpoint.bytes_captured", 0)
    submits = tuple(n for n in rec.names if n.endswith(".submit"))
    hits = got.get("exec.cache_hits", 0)
    misses = got.get("exec.cache_misses", 0)
    m = {
        "sim.events": engines.get("sim.events", 0),
        "sim.cancelled": engines.get("sim.cancelled", 0),
        "sim.compactions": engines.get("sim.compactions", 0),
        "sim.timer_epochs": engines.get("sim.timer_epochs", 0),
        "sim.self_s": layer_self("sim"),
        "apps.phase_steps": sum(v for k, v in calls.items()
                                if k.startswith("apps.")),
        "apps.self_s": layer_self("apps"),
        "mpi.sends": counts.get("mpi.sends", 0),
        "mpi.recvs": counts.get("mpi.recvs", 0),
        "mpi.collectives": counts.get("mpi.collectives", 0),
        "mpi.self_s": layer_self("mpi"),
        "net.messages": counts.get("net.messages", 0),
        "net.bytes": counts.get("net.bytes", 0),
        "net.deposits": counts.get("net.deposits", 0),
        "net.storage_frames": counts.get("net.storage_frames", 0),
        "net.contention_delay_s": got.get("net.contention_delay_s", 0.0),
        "net.contended_messages": got.get("net.contended_messages", 0),
        "net.self_s": layer_self("net"),
        "mem.cpu_writes": counts.get("mem.cpu_writes", 0),
        "mem.dma_writes": counts.get("mem.dma_writes", 0),
        "mem.maps": counts.get("mem.maps", 0),
        "mem.pages_reprotected": counts.get("mem.pages_reprotected", 0),
        "mem.self_s": layer_self("mem"),
        "instrument.timeslices": got.get("instrument.timeslices", 0),
        "instrument.iws_pages": got.get("instrument.iws_pages", 0),
        "instrument.faults": got.get("instrument.faults", 0),
        "checkpoint.captures": len(captures),
        "checkpoint.capture_s": float(captures.sum()) / 1e3,
        "checkpoint.capture_p50_ms": (float(np.percentile(captures, 50))
                                      if len(captures) else 0.0),
        "checkpoint.capture_p99_ms": (float(np.percentile(captures, 99))
                                      if len(captures) else 0.0),
        "checkpoint.pages_captured": counts.get("checkpoint.pages_captured",
                                                0),
        "checkpoint.bytes_captured": captured,
        "checkpoint.commits": counts.get("checkpoint.commits", 0),
        "checkpoint.submits": n_calls(*submits),
        "checkpoint.submit_s": inclusive(*submits),
        "checkpoint.frames": got.get("checkpoint.frames", 0),
        "checkpoint.stall_time_s": got.get("checkpoint.stall_time_s", 0.0),
        "checkpoint.restarts": n_calls(
            "checkpoint.RestartCoordinator.restart"),
        "checkpoint.restart_s": inclusive(
            "checkpoint.RestartCoordinator.restart"),
        "checkpoint.replay_s": inclusive("checkpoint.apply_chain",
                                         "checkpoint.replay_chain"),
        "checkpoint.committed_byte_ratio": (
            got.get("checkpoint.committed_bytes", 0) / captured
            if captured else 0.0),
        "checkpoint.self_s": layer_self("checkpoint"),
        "storage.puts": n_calls("storage.CheckpointStore.put"),
        "storage.put_s": inclusive("storage.CheckpointStore.put"),
        "storage.chain_verifies": n_calls("storage.verify_chain"),
        "storage.verify_s": inclusive("storage.verify_chain"),
        "storage.pieces_verified": counts.get("storage.pieces_verified", 0),
        "storage.corruptions_detected": counts.get(
            "storage.corruptions_detected", 0),
        "storage.archive_s": inclusive("storage.save_store",
                                       "storage.scan_store"),
        "storage.archive_bytes": got.get("storage.archive_bytes", 0),
        "storage.self_s": layer_self("storage"),
        "faults.crashes": got.get("faults.crashes", 0),
        "faults.flips": counts.get("faults.flips", 0),
        "faults.lives": got.get("faults.lives", 0),
        "exec.points": counts.get("exec.points", 0),
        "exec.cache_hits": hits,
        "exec.cache_misses": misses,
        "exec.cache_hit_ratio": hits / (hits + misses) if hits + misses
        else 0.0,
        "exec.run_many_s": inclusive("exec.SweepExecutor.run_many"),
        "exec.warm_sweep_s": outcome.timings.get("exec.warm_sweep_s", 0.0),
        "exec.self_s": layer_self("exec"),
        "trace.spans": len(rec) + sum(w["spans"] for w in workers),
        "trace.traced_wall_s": 0.0,
        "trace.untraced_wall_s": 0.0,
        "trace.overhead_ratio": 0.0,
        "host.raw_wall_s": 0.0,
        "host.probe_ms": 0.0,
    }
    if set(m) != set(PER_LAYER):
        raise RuntimeError(f"per-layer names out of step: "
                           f"{sorted(set(m) ^ set(PER_LAYER))}")
    return m


def _share(part: float, base: float) -> str:
    """A part of a host time, with its base.  Below 10 ms a percentage
    says more than the measurement can, so the time itself is given."""
    if part < 0.010 or base <= 0:
        return f"{part * 1e3:.2f} ms of {base:.3f} s"
    return f"{part / base:6.1%} of {base:.3f} s"


def shares(metrics: dict) -> str:
    """Self time per layer as a share of the traced wall time, and the
    tracing overhead with both of its bases."""
    base = metrics["trace.traced_wall_s"]["value"]
    plain = metrics["trace.untraced_wall_s"]["value"]
    lines = ["self time by layer (traced process; pool workers included):"]
    for layer in LAYERS:
        part = metrics[f"{layer}.self_s"]["value"]
        lines.append(f"  {layer:12s} {part:9.4f} s  {_share(part, base)}")
    ratio = metrics["trace.overhead_ratio"]["value"]
    lines.append(f"tracing overhead: traced {base:.3f} s / untraced "
                 f"{plain:.3f} s = {ratio:.3f}x")
    return "\n".join(lines)

"""Every metric name in one place: a finished run read into a registry.

The components keep plain counts whether or not anyone observes the
run.  :func:`publish_run` reads them into a
:class:`~repro.obs.MetricsRegistry` once a run -- or one life of a
fault run -- ends, so no simulation hot path touches the registry.
Counters are added (a registry shared by several runs or lives sums
them), gauges are set, and series are replayed in sim-time order.  A
metric appears once its count is non-zero, as it would in a registry
bumped at each event.  The one exception is
``checkpoint.transport.drained_bytes``: built from per-frame durability
times that nothing else keeps, it is recorded by the framed transport
as frames settle.
"""

from __future__ import annotations

from collections import Counter

from repro.storage import Disk, StorageArray
from repro.storage.integrity import HASH_BANDWIDTH


def publish_run(metrics, *, engine, job=None, library=None, ckpt=None,
                injector=None, failures=(), corruptions=(),
                prefix: str = "sim.engine") -> None:
    """Publish one run's counts into ``metrics``: the engine's, and
    those of each source given -- the MPI job, the instrumentation
    library, the checkpoint engine, a fault-run life's injector, and the
    records of the recovery that started that life."""
    for name, value in engine.stats().items():
        metrics.gauge(f"{prefix}.{name}").set(value)
    if job is not None:
        net, nics = job.network, job.nics
        _add(metrics, net.messages_sent, {
            "net.messages_sent": net.messages_sent,
            "net.bytes_sent": net.bytes_sent})
        received = sum(nic.messages_received for nic in nics)
        _add(metrics, received, {
            "net.messages_received": received,
            "net.bytes_received": sum(nic.bytes_received for nic in nics)})
        dropped = sum(nic.messages_dropped for nic in nics)
        _add(metrics, dropped, {"net.messages_dropped": dropped})
        _add(metrics, net.ckpt_frames_sent, {
            "net.ckpt_frames": net.ckpt_frames_sent,
            "net.ckpt_bytes": net.ckpt_bytes_sent})
    if library is not None:
        _publish_slices(metrics, list(library.trackers.values()))
    if ckpt is not None:
        _publish_checkpoint(metrics, ckpt)
    if injector is not None:
        kinds = Counter(ev.kind.value for ev in injector.delivered)
        _add(metrics, kinds, {
            "faults.delivered": len(injector.delivered),
            **{f"faults.delivered_{kind}": n for kind, n in kinds.items()}})
        corrupted = sum(1 for ev in injector.delivered if ev.kind.corrupting)
        _add(metrics, corrupted, {"ckpt.integrity.corrupted": corrupted})
    _add(metrics, failures, {
        "faults.failures": len(failures),
        "faults.lost_work_s": [r.lost_work for r in failures],
        "faults.downtime_s": [r.downtime for r in failures]})
    _add(metrics, corruptions, {"ckpt.integrity.detected": len(corruptions)})
    for c in corruptions:
        metrics.series("ckpt.integrity.detected_at").record(c.detected_at)
    # one walk-back per rejected candidate, however many chains were bad
    walkbacks = len({(c.life, c.rejected_seq) for c in corruptions})
    _add(metrics, walkbacks, {"ckpt.integrity.walkbacks": walkbacks})


def _add(metrics, present, counts: dict) -> None:
    """Add each ``name: value`` of ``counts`` when ``present`` is truthy;
    a list value adds item by item, in order, as its events did."""
    if present:
        for name, value in counts.items():
            counter = metrics.counter(name)
            for item in (value if isinstance(value, list) else [value]):
                counter.inc(item)


def _publish_slices(metrics, trackers: list) -> None:
    rows = [r for t in trackers for r in t.log.records]
    if not rows:
        return
    _add(metrics, True, {
        "instrument.slices": len(rows),
        "instrument.pages_dirtied": sum(r.iws_pages for r in rows),
        "instrument.pages_protected": sum(t.pages_protected
                                          for t in trackers),
        "instrument.faults": sum(r.faults for r in rows)})
    iws = metrics.series("instrument.iws_bytes")
    dirty = metrics.series("instrument.dirty_pages")
    # in alarm order: a windowed series drops samples older than its
    # retained windows
    for r in sorted(rows, key=lambda r: r.t_end):
        iws.record(r.t_end, r.iws_bytes)
        dirty.record(r.t_end, r.iws_pages)


def _publish_checkpoint(metrics, ckpt) -> None:
    kinds = ckpt.captures_by_kind
    _add(metrics, kinds, {
        "checkpoint.captures": sum(kinds.values()),
        "checkpoint.bytes_captured": ckpt.bytes_captured,
        **{f"checkpoint.captures_{kind}": n for kind, n in kinds.items()}})
    # the hash cost is an observability figure only, never charged to
    # sim time, so dcp and incremental runs stay sim-identical
    hashed = ckpt.dcp_blocks_hashed
    _add(metrics, hashed, {
        "ckpt.dcp.blocks_hashed": sum(hashed),
        "ckpt.dcp.blocks_written": ckpt.dcp_blocks_written,
        "ckpt.dcp.bytes_saved": ckpt.dcp_bytes_saved,
        "ckpt.dcp.hash_cost_s": [n * ckpt.block_size / HASH_BANDWIDTH
                                 for n in hashed]})
    commits = len(ckpt.committed())
    _add(metrics, commits, {"checkpoint.commits": commits})
    failed = len(ckpt.write_failures)
    _add(metrics, failed, {"checkpoint.write_failures": failed})
    # an array counts its member disks; diskless sinks (buddy memory,
    # not storage) have none
    disks = []
    for sink in ckpt.sinks():
        if isinstance(sink, Disk):
            disks.append(sink)
        elif isinstance(sink, StorageArray):
            disks.extend(sink.disks)
    written = [d for d in disks if d.ops > d.writes_failed]
    _add(metrics, written, {
        "storage.bytes_written": sum(d.bytes_written for d in written)})
    for d in written:
        _add(metrics, True, {f"storage.{d.name}.bytes_written":
                             d.bytes_written})
    failed = sum(d.writes_failed for d in disks)
    _add(metrics, failed, {"storage.writes_failed": failed})
    stats = ckpt.transport_stats()
    if stats.measured and stats.pieces:
        metrics.gauge("checkpoint.transport.queue_bytes").set(
            stats.in_flight_bytes)
        metrics.gauge("checkpoint.transport.peak_queue_bytes").set(
            stats.peak_queue_bytes)
        _add(metrics, True, {
            "checkpoint.transport.bytes_drained": stats.bytes_drained,
            "checkpoint.transport.frames": ckpt.transport.frames_drained,
            "checkpoint.transport.stalls": stats.stalls,
            "checkpoint.transport.stall_time_s": ckpt.transport.stall_log})

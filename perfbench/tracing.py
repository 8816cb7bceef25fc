"""Per-layer spans, recorded from outside the program.

:func:`install` wraps the public entry points of each ``repro`` layer
(``sim``, ``apps``, ``mpi``, ``net``, ``mem``, ``checkpoint``,
``storage``, ``exec``) with a span: name, start, end and the span that
was open when it began.  Spans stay in memory in flat typed arrays and
are written out when the process ends (:meth:`SpanRecorder.dump`); a
forked pool worker, whose end nobody sees, appends its new spans after
each task.

A span's self time is its duration minus the part its child spans
cover; a layer's self time is the sum over its spans.  Generator entry
points (the ``Phase.run`` implementations and the MPI collectives) get
one span per generator step, so a simulated process's time is charged
to the phase or collective that was running, and the engine's own
dispatch work is what remains of the ``Engine.run`` span.

Nothing under ``src/`` knows about this module: the wrappers replace
class attributes and module-level bindings at run time, in the one
process that asked for tracing (and in the pool workers it forks).
"""

from __future__ import annotations

import functools
import json
import os
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np


class SpanRecorder:
    """Spans of one process, plus the named counts taken at the same
    boundaries."""

    def __init__(self, worker_dir: Path) -> None:
        #: where forked pool workers leave their summaries and spans
        self.worker_dir = worker_dir
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        """Forget every span and count (a forked worker starts clean)."""
        self.pid = os.getpid()
        #: spans already appended to the dump file
        self.dumped = 0
        self.name_col = array("H")
        self.parent_col = array("q")
        self.start_col = array("d")
        self.end_col = array("d")
        self.self_s = [0.0] * len(self.names)
        self._stack: list[list] = []
        # cleared in place: the wrappers hold this object
        self.counts: dict[str, float] = getattr(self, "counts",
                                                defaultdict(float))
        self.counts.clear()

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
        return nid

    def enter(self, nid: int) -> None:
        stack = self._stack
        idx = len(self.name_col)
        self.name_col.append(nid)
        self.parent_col.append(stack[-1][0] if stack else -1)
        self.end_col.append(0.0)
        start = perf_counter()
        self.start_col.append(start)
        stack.append([idx, start, 0.0])

    def exit(self, nid: int) -> None:
        end = perf_counter()
        stack = self._stack
        idx, start, child = stack.pop()
        self.end_col[idx] = end
        duration = end - start
        self.self_s[nid] += duration - child
        if stack:
            stack[-1][2] += duration

    # -- reading -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.name_col)

    def calls(self) -> dict[str, int]:
        """Spans per name (generator entry points: steps)."""
        counts = np.bincount(np.frombuffer(self.name_col, dtype=np.uint16),
                             minlength=len(self.names))
        return {name: int(n) for name, n in zip(self.names, counts)}

    def outermost(self, names: tuple[str, ...]) -> np.ndarray:
        """Durations of the spans named in ``names`` that do not sit
        inside another span of the same group (inclusive times summed
        without double counting nested calls)."""
        ids = [self._ids[n] for n in names if n in self._ids]
        if not ids or not len(self):
            return np.zeros(0)
        name = np.frombuffer(self.name_col, dtype=np.uint16)
        parent = np.frombuffer(self.parent_col, dtype=np.int64)
        member = np.isin(name, ids)
        inside = np.zeros(len(name), dtype=bool)
        # walk each member's ancestor chain (shallow: a few layers deep)
        cur = parent.copy()
        while True:
            live = cur >= 0
            if not live.any():
                break
            hit = np.zeros(len(name), dtype=bool)
            hit[live] = member[cur[live]]
            inside |= hit
            nxt = np.full(len(name), -1, dtype=np.int64)
            nxt[live] = parent[cur[live]]
            cur = nxt
        pick = member & ~inside
        start = np.frombuffer(self.start_col, dtype=np.float64)
        end = np.frombuffer(self.end_col, dtype=np.float64)
        return (end - start)[pick]

    def summary(self) -> dict:
        """What a forked worker hands back to the run that owns it."""
        return {
            "self_s": dict(zip(self.names, self.self_s)),
            "calls": self.calls(),
            "counts": dict(self.counts),
            "spans": len(self),
        }

    def dump(self, path: Path) -> Path:
        """Append the spans not written yet to ``path``: rows of (name
        id, parent index, start, end), with the name table rewritten
        beside it as JSON."""
        lo = self.dumped
        rows = np.empty(len(self) - lo, dtype=[
            ("name", "<u2"), ("parent", "<i8"), ("start", "<f8"),
            ("end", "<f8")])
        rows["name"] = np.frombuffer(self.name_col, dtype=np.uint16)[lo:]
        rows["parent"] = np.frombuffer(self.parent_col, dtype=np.int64)[lo:]
        rows["start"] = np.frombuffer(self.start_col, dtype=np.float64)[lo:]
        rows["end"] = np.frombuffer(self.end_col, dtype=np.float64)[lo:]
        with open(path, "ab") as f:
            rows.tofile(f)
        self.dumped = len(self)
        path.with_suffix(".json").write_text(json.dumps(
            {"names": self.names, "rows": len(self),
             "dtype": "name u2, parent i8, start f8, end f8",
             "clock": "time.perf_counter seconds"}))
        return path


# -- wrappers ----------------------------------------------------------------


def _wrap_call(rec: SpanRecorder, owner, attr: str, name: str,
               after=None) -> None:
    """Span around a plain call; ``after(result, args)`` takes counts."""
    # a class's own function, not a bound or inherited one
    orig = (owner.__dict__[attr] if isinstance(owner, type)
            else getattr(owner, attr))
    nid = rec.name_id(name)
    enter, leave = rec.enter, rec.exit

    if after is None:
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            enter(nid)
            try:
                return orig(*args, **kwargs)
            finally:
                leave(nid)
    else:
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            enter(nid)
            try:
                result = orig(*args, **kwargs)
            finally:
                leave(nid)
            after(result, args)
            return result
    setattr(owner, attr, wrapper)


def _wrap_generator(rec: SpanRecorder, owner, attr: str, name: str,
                    count: str | None = None) -> None:
    """One span per step of the generator the method returns."""
    orig = owner.__dict__[attr]
    nid = rec.name_id(name)
    enter, leave = rec.enter, rec.exit
    counts = rec.counts

    def stepped(gen):
        value = None
        error = None
        while True:
            enter(nid)
            try:
                item = gen.send(value) if error is None else gen.throw(error)
            except StopIteration as stop:
                leave(nid)
                return stop.value
            except BaseException:
                leave(nid)
                raise
            leave(nid)
            error = None
            try:
                value = yield item
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # forwarded into the inner step
                value, error = None, exc

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        if count is not None:
            counts[count] += 1
        return stepped(orig(*args, **kwargs))
    setattr(owner, attr, wrapper)


def _subclasses_defining(base: type, attr: str) -> list[type]:
    out, todo = [], [base]
    while todo:
        cls = todo.pop()
        if attr in cls.__dict__:
            out.append(cls)
        todo.extend(cls.__subclasses__())
    return sorted(set(out), key=lambda c: c.__qualname__)


def install(rec: SpanRecorder, marks) -> None:
    """Wrap every layer's entry points (idempotence is the caller's job:
    call once per process).  ``marks`` is the run's engine registry, which
    pool workers report with their spans."""
    from repro.apps.phases import Phase
    from repro.checkpoint import recovery, restart
    from repro.checkpoint.dcp import DcpCheckpointer
    from repro.checkpoint.full import FullCheckpointer
    from repro.checkpoint.incremental import IncrementalCheckpointer
    from repro.checkpoint.transport import CheckpointTransport
    from repro.exec import cache as exec_cache
    from repro.exec import pool as exec_pool
    from repro.mem.address_space import AddressSpace
    from repro.mpi.communicator import RankComm
    from repro.net.network import Network
    from repro.net.nic import NIC
    from repro.sim.engine import Engine
    from repro.storage import archive, store as store_mod
    from repro.storage.store import CheckpointStore

    c = rec.counts

    def add(key, n=1):
        c[key] += n

    # sim: the event loop; its self time is dispatch plus whatever the
    # wrapped layers below do not cover
    _wrap_call(rec, Engine, "run", "sim.Engine.run")

    # apps: every generator step of every Phase.run implementation
    for cls in _subclasses_defining(Phase, "run"):
        _wrap_generator(rec, cls, "run", f"apps.{cls.__name__}.run")

    # mpi: point to point and collectives
    _wrap_call(rec, RankComm, "send", "mpi.RankComm.send",
               lambda r, a: add("mpi.sends"))
    _wrap_call(rec, RankComm, "send_many", "mpi.RankComm.send_many",
               lambda r, a: add("mpi.sends"))
    _wrap_call(rec, RankComm, "recv", "mpi.RankComm.recv",
               lambda r, a: add("mpi.recvs"))
    for coll in ("barrier", "bcast", "reduce", "allreduce", "gather",
                 "allgather", "alltoall"):
        _wrap_generator(rec, RankComm, coll, f"mpi.RankComm.{coll}",
                        count="mpi.collectives")

    # net: injection, checkpoint frames, receive deposits
    def sent_one(_r, args):
        c["net.messages"] += 1
        c["net.bytes"] += args[1].size

    def sent_many(_r, args):
        msgs = args[1]
        if len(msgs) != 1:          # a single message goes through send
            c["net.messages"] += len(msgs)
            c["net.bytes"] += sum(m.size for m in msgs)
    _wrap_call(rec, Network, "send", "net.Network.send", sent_one)
    _wrap_call(rec, Network, "send_many", "net.Network.send_many", sent_many)
    _wrap_call(rec, Network, "storage_send", "net.Network.storage_send",
               lambda r, a: add("net.storage_frames"))
    _wrap_call(rec, NIC, "deposit", "net.NIC.deposit",
               lambda r, a: add("net.deposits"))

    # mem: write paths, mappings, the alarm's reprotect sweep
    _wrap_call(rec, AddressSpace, "cpu_write", "mem.AddressSpace.cpu_write")
    _wrap_call(rec, AddressSpace, "cpu_write_pages",
               "mem.AddressSpace.cpu_write_pages",
               lambda r, a: add("mem.cpu_writes"))
    _wrap_call(rec, AddressSpace, "dma_write", "mem.AddressSpace.dma_write",
               lambda r, a: add("mem.dma_writes"))
    for attr in ("mmap", "mmap_fixed"):
        _wrap_call(rec, AddressSpace, attr, f"mem.AddressSpace.{attr}",
                   lambda r, a: add("mem.maps"))
    for attr in ("munmap", "sbrk"):
        _wrap_call(rec, AddressSpace, attr, f"mem.AddressSpace.{attr}")
    _wrap_call(rec, AddressSpace, "reset_and_protect",
               "mem.AddressSpace.reset_and_protect",
               lambda r, a: add("mem.pages_reprotected", r))

    # checkpoint: capture, hand-off to the transport, restart and replay
    def captured(ckpt, _args):
        c["checkpoint.pages_captured"] += ckpt.pages_saved
        c["checkpoint.bytes_captured"] += ckpt.nbytes
    for cls in (FullCheckpointer, IncrementalCheckpointer, DcpCheckpointer):
        _wrap_call(rec, cls, "capture", f"checkpoint.{cls.__name__}.capture",
                   captured)
    for cls in _subclasses_defining(CheckpointTransport, "submit"):
        _wrap_call(rec, cls, "submit", f"checkpoint.{cls.__name__}.submit")
    _wrap_call(rec, restart.RestartCoordinator, "restart",
               "checkpoint.RestartCoordinator.restart")
    _wrap_call(rec, recovery, "replay_chain", "checkpoint.replay_chain")
    _wrap_call(rec, recovery, "apply_chain", "checkpoint.apply_chain")
    restart.apply_chain = recovery.apply_chain

    # storage: puts, commit markers, chain verification, archives
    _wrap_call(rec, CheckpointStore, "put", "storage.CheckpointStore.put")
    _wrap_call(rec, CheckpointStore, "mark_committed",
               "storage.CheckpointStore.mark_committed",
               lambda r, a: add("checkpoint.commits"))

    def flipped(result, _args):
        if result is not None:
            c["faults.flips"] += 1
    _wrap_call(rec, CheckpointStore, "flip_bits",
               "storage.CheckpointStore.flip_bits", flipped)

    def verified(outcome, _args):
        c["storage.pieces_verified"] += len(outcome.pieces)
        if not outcome.intact:
            c["storage.corruptions_detected"] += 1
    for module in (store_mod, recovery, archive):
        _wrap_call(rec, module, "verify_chain", "storage.verify_chain",
                   verified)
    _wrap_call(rec, archive, "save_store", "storage.save_store")
    _wrap_call(rec, archive, "scan_store", "storage.scan_store")

    # exec: sweeps, cache probes and writes, pool tasks
    from repro.exec.pool import SweepExecutor
    _wrap_call(rec, SweepExecutor, "run_many", "exec.SweepExecutor.run_many",
               lambda r, a: add("exec.points", len(r)))
    _wrap_call(rec, exec_cache.ResultCache, "get", "exec.ResultCache.get")
    _wrap_call(rec, exec_cache.ResultCache, "put", "exec.ResultCache.put")
    _wrap_pool_task(rec, marks, exec_pool)


def _wrap_pool_task(rec: SpanRecorder, marks, exec_pool) -> None:
    """Pool workers are forked with these wrappers in place; after each
    task a worker writes its cumulative summary and appends its new spans
    beside the run's other outputs, since its memory dies with it.  Every
    span of a task has ended by then: the task span is outermost."""
    orig = exec_pool._run_and_store
    nid = rec.name_id("exec.pool_task")

    @functools.wraps(orig)
    def task(config, cache_root):
        if os.getpid() != rec.pid:
            rec.reset()         # forked: drop the parent's spans
            marks.engines.clear()
        rec.enter(nid)
        try:
            result = orig(config, cache_root)
        finally:
            rec.exit(nid)
        out = rec.worker_dir / f"worker-{os.getpid()}"
        summary = {**rec.summary(), "engines": marks.engine_counts()}
        out.with_suffix(".summary.json").write_text(json.dumps(summary))
        rec.dump(out.with_suffix(".spans"))
        return result
    exec_pool._run_and_store = task


def merge_worker_summaries(directory: Path) -> list[dict]:
    """The summaries the run's pool workers left behind."""
    return [json.loads(p.read_text())
            for p in sorted(directory.glob("worker-*.summary.json"))]

"""A speed probe interleaved with the workload, to take the host's speed
out of the timings.

The benchmark's host is a few cores of a shared machine whose speed
swings by tens of percent over seconds to minutes while other tenants
come and go: the same deterministic process takes anywhere between 3.2
and 5.4 s.  Medians over processes remove the short swings, not the
slow ones.  A calibration kernel timed between processes does not help
either, because the host's speed changes within a few seconds.

So the kernel runs inside the measured process, interleaved with the
workload: a timer signal every :data:`INTERVAL_S` runs :func:`kernel`
(about 1 ms) between two bytecodes of the workload, so every sample sees
the host as the workload sees it at that moment.  The process's times,
less the time the probe itself took, are then scaled by
``REFERENCE_MS / median kernel time``: host seconds at the speed the
kernel had when the benchmark was sized.  On the sizing host this cut
the spread of one process's time from 16% to 8% (quartile distance over
the median, sixteen processes of ``scale_skeleton``).  On ``fig2_sweep``,
whose pool workers do the simulating, taking the workers' samples in
with the parent's cut the coefficient of variation from 10% to 5.5%
(fourteen processes; 9.3% with the parent's samples alone).

The kernel is a fixed mix of what the simulator's profile shows: an
event heap, generator resumes, dict updates, small-object allocation and
a strided numpy update over a buffer larger than the caches.  It uses
nothing from the simulator, so a change to the simulator does not move
it.  The benchmark's own process runs it, and so do the pool workers a
sweep forks: each arms its own timer after the fork and leaves its
samples in a file when it exits, for the median to take in.
"""

from __future__ import annotations

import heapq
import json
import os
import signal
import statistics
import time
from multiprocessing import util
from pathlib import Path

import numpy as np

#: seconds between two probe samples
INTERVAL_S = 0.05
#: the kernel's median time on the sizing host in a fast phase; only
#: the unit of the scaled times depends on it, so it never changes
REFERENCE_MS = 0.7

_buffer = np.zeros(1 << 24, dtype=np.uint8)


def kernel() -> None:
    """About a millisecond of simulator-like work."""
    heap: list = []
    counts: dict = {}
    for i in range(600):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
    while heap:
        t, _ = heapq.heappop(heap)
        counts[t & 127] = counts.get(t & 127, 0) + 1

    def echo():
        x = 0
        while True:
            x = yield x

    gen = echo()
    next(gen)
    for i in range(500):
        gen.send(i)
    [(i, str(i)) for i in range(800)]
    _buffer[::4096] += 1
    int(_buffer[::4096].sum())


class SpeedProbe:
    """Samples :func:`kernel` on a timer for as long as it runs."""

    def __init__(self, share_dir: Path) -> None:
        #: where forked pool workers leave their samples
        self.share_dir = share_dir
        #: (end, duration) of every sample, in monotonic seconds
        self.samples: list[tuple[float, float]] = []
        #: durations sampled in pool workers, once collected
        self.worker_samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        kernel()
        t1 = time.clock_gettime(time.CLOCK_MONOTONIC)
        self.samples.append((t1, t1 - t0))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        util.register_after_fork(self, SpeedProbe._forked)

    def _forked(self) -> None:
        """In a freshly forked pool worker, which inherits the handler
        but no timer: sample here too until the worker exits."""
        self.samples = []
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        util.Finalize(self, self._leave, exitpriority=100)

    def _leave(self) -> None:
        self.stop()
        out = self.share_dir / f"probe-{os.getpid()}.json"
        out.write_text(json.dumps([d for _, d in self.samples]))

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def collect(self) -> None:
        """Take in the samples of the pool workers that have exited."""
        for p in sorted(self.share_dir.glob("probe-*.json")):
            self.worker_samples.extend(json.loads(p.read_text()))
            p.unlink()

    def spent(self, until: float) -> float:
        """Seconds the probe took before ``until``."""
        return sum(d for end, d in self.samples if end <= until)

    def median_ms(self) -> float:
        every = [d for _, d in self.samples] + self.worker_samples
        if not every:
            raise RuntimeError("the speed probe took no sample")
        return statistics.median(every) * 1e3

    def factor(self) -> float:
        """Host seconds times this = seconds at the reference speed."""
        return REFERENCE_MS / self.median_ms()

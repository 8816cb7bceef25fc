"""Seeded fault plans for the ``crash_recovery`` workload.

Every seed yields the same shape: exactly :data:`CRASHES` crashes, each
preceded by a FLIP on the committed full piece that heads the chain the
crash would recover from.  Every recovery therefore rejects each
committed sequence of that chain and walks back to the last sequence of
the chain before it.  The seed picks the exact instants inside a safe
window, the victim ranks and the number of bits flipped.  Every crash
falls in the same checkpoint cycle of its life and the window is
narrow, so the work lost, and with it the simulated time and the host
time of a run, varies little from seed to seed.

The plan is computed ahead of the run, so it relies on the workload's
checkpoint timeline, which is periodic per life (a life is the job from
one launch or restart to its next crash).  With ``interval_slices=2`` at
a 0.5 s timeslice a capture happens every second of life time and every
tenth capture is full (``full_every=10``), so one cycle is
:data:`CYCLE_S` seconds long and the second cycle is headed by the full
piece of seq :data:`FLIPPED_SEQ`, captured 1 s into the cycle.  Measured
at the workload size (sage-100MB, 16 ranks, network transport), that
full commits 2.9 s after the cycle starts in the first life, and later
in each restarted life, up to 5.1 s after it in the fifth; the next
cycle's full commits no earlier than 12.45 s after the cycle starts.
The flip and the crash both fall between the two, so the flip always
breaks the chain of the newest committed sequence, and recovery lands
on :data:`RECOVERED_SEQ`, the first cycle's last piece.  (At
``full_every=5`` the disk drain runs at 99.8% utilization and the
commit times drift by seconds from life to life, which no plan made
ahead of the run can follow.)

A restarted life begins at the crash time plus the detection latency
of ``run_with_failures`` plus the time to read the recovered chain,
which depends on the incremental sizes; :data:`RESTART_GAP_S` is a
little above its largest value, and the flip and crash windows keep
about a second of margin on either side for the error.  The benchmark checks the outcome of every
run: a plan that did not walk back on every crash fails the run.
"""

from __future__ import annotations

import numpy as np

from repro.faults.plan import FaultEvent, FaultKind, FaultPlan

#: crashes (and flips) per plan, for every seed
CRASHES = 4
#: captures per cycle (one full, then incrementals)
FULL_EVERY = 10
#: life seconds per checkpoint cycle: one capture per second
CYCLE_S = 10.0
#: the full piece heading each life's second cycle: what every FLIP hits
FLIPPED_SEQ = 2 * FULL_EVERY + 1
#: the first cycle's last piece: where every recovery walks back to
RECOVERED_SEQ = FLIPPED_SEQ - 2
#: the flip falls this many seconds into the second cycle ...
FLIP_AT = (6.0, 6.5)
#: ... and the crash this many seconds after the flip
CRASH_AFTER = (0.5, 1.5)
#: crash -> next life start: detection latency (0.25 s) plus a typical
#: time to read the recovered chain at the cluster's disk rate (1.5 s in
#: the first restart, growing to 1.8 s by the fourth)
RESTART_GAP_S = 1.9


def crash_plan(seed: int, nranks: int) -> FaultPlan:
    """The plan for one seed."""
    rng = np.random.default_rng([seed, 0x5EED])
    events: list[FaultEvent] = []
    life_start = 0.0
    for _ in range(CRASHES):
        flip_at = life_start + CYCLE_S + float(rng.uniform(*FLIP_AT))
        crash_at = flip_at + float(rng.uniform(*CRASH_AFTER))
        events.append(FaultEvent(time=round(flip_at, 6), kind=FaultKind.FLIP,
                                 rank=int(rng.integers(nranks)),
                                 count=int(rng.integers(1, 9)),
                                 seq=FLIPPED_SEQ))
        events.append(FaultEvent(time=round(crash_at, 6),
                                 kind=FaultKind.CRASH,
                                 rank=int(rng.integers(nranks))))
        life_start = round(crash_at, 6) + RESTART_GAP_S
    return FaultPlan(events)

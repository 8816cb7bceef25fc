"""Checkpoint and rollback recovery.

The paper *measures* the bandwidth an incremental checkpointer would
need; this package goes one step further and builds the checkpointer the
measurements argue for, which lets the tests prove the central identity:
**the IWS is exactly the data an incremental checkpoint must save**.

- :mod:`~repro.checkpoint.snapshot` -- checkpoint objects: segment
  geometry + per-unit content versions (a unit is a page, or a
  sub-page block);
- :mod:`~repro.checkpoint.full` / :mod:`~repro.checkpoint.incremental`
  -- capture engines (the incremental one accumulates dirty pages across
  timeslices and handles segment growth/shrink/unmap);
- :mod:`~repro.checkpoint.recovery` -- chain replay: reconstruct an
  address space from a full checkpoint plus deltas and verify it matches
  the original bit-for-bit (by content signature);
- :mod:`~repro.checkpoint.coordinated` -- the cluster-wide engine:
  every rank captures at the same timeslice boundaries, streams to
  stable storage, and a global sequence commits only when every rank's
  piece is durable;
- :mod:`~repro.checkpoint.planner` -- burst-aware checkpoint placement
  (section 6.2: checkpoint between bursts, not inside them).
"""

from repro.checkpoint.snapshot import Checkpoint, Payload, SegmentRecord
from repro.checkpoint.full import FullCheckpointer
from repro.checkpoint.incremental import IncrementalCheckpointer
from repro.checkpoint.dcp import DcpCheckpointer
from repro.checkpoint.recovery import (
    RecoveryManager,
    apply_chain,
    restore_address_space,
)
from repro.checkpoint.coordinated import CheckpointEngine, GlobalCheckpoint
from repro.checkpoint.transport import (
    CheckpointTransport,
    DrainQueue,
    EstimateTransport,
    TransportSpec,
    TransportStats,
    make_transport,
)
from repro.checkpoint.planner import CheckpointPlanner, cow_cost
from repro.checkpoint.restart import RestartCoordinator, make_resume_body
from repro.checkpoint.uncoordinated import (
    LoggedMessage,
    MessageLogger,
    UncoordinatedSchedule,
    lost_work,
    recovery_line,
)

__all__ = [
    "Checkpoint",
    "CheckpointEngine",
    "CheckpointPlanner",
    "CheckpointTransport",
    "DcpCheckpointer",
    "DrainQueue",
    "EstimateTransport",
    "FullCheckpointer",
    "GlobalCheckpoint",
    "IncrementalCheckpointer",
    "TransportSpec",
    "TransportStats",
    "LoggedMessage",
    "MessageLogger",
    "Payload",
    "RecoveryManager",
    "RestartCoordinator",
    "SegmentRecord",
    "UncoordinatedSchedule",
    "apply_chain",
    "cow_cost",
    "lost_work",
    "make_resume_body",
    "make_transport",
    "recovery_line",
    "restore_address_space",
]

"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch the whole family with a single ``except`` clause.
The sub-hierarchies mirror the substrates: simulation engine, memory
system, process/syscall layer, network, MPI runtime, checkpointing, and
experiment configuration.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


# --------------------------------------------------------------------------
# Simulation engine
# --------------------------------------------------------------------------

class SimulationError(ReproError):
    """Errors in the discrete-event simulation engine."""


class ClockError(SimulationError):
    """An event was scheduled in the past, or time went backwards."""


class ProcessStateError(SimulationError):
    """A simulated process was driven while in an incompatible state."""


class DeadlockError(SimulationError):
    """The event queue drained while processes were still blocked."""


# --------------------------------------------------------------------------
# Memory subsystem
# --------------------------------------------------------------------------

class MemoryError_(ReproError):
    """Base for address-space errors (named to avoid shadowing builtins)."""


class SegmentationFault(MemoryError_):
    """An access touched an unmapped address (a *real* SIGSEGV, not a
    write-protection fault, which is handled internally by the MMU)."""

    def __init__(self, addr: int, message: str = ""):
        self.addr = addr
        super().__init__(message or f"segmentation fault at address {addr:#x}")


class MappingError(MemoryError_):
    """mmap/munmap/brk arguments were invalid (overlap, misalignment...)."""


class ProtectionError(MemoryError_):
    """mprotect was applied to an invalid range or invalid protection."""


class AllocationError(MemoryError_):
    """The heap allocator could not satisfy a request."""


# --------------------------------------------------------------------------
# Process / syscall layer
# --------------------------------------------------------------------------

class ProcessError(ReproError):
    """Errors from the simulated UNIX process layer."""


class SignalError(ProcessError):
    """Invalid signal number or handler registration."""


# --------------------------------------------------------------------------
# Network / MPI
# --------------------------------------------------------------------------

class NetworkError(ReproError):
    """Errors in the interconnect model."""


class MPIError(ReproError):
    """Errors in the MPI-like runtime (bad rank, mismatched collective...)."""


class RankError(MPIError):
    """A rank outside ``[0, size)`` was addressed."""

    def __init__(self, rank: int, size: int):
        self.rank = rank
        self.size = size
        super().__init__(f"rank {rank} out of range for communicator of size {size}")


# --------------------------------------------------------------------------
# Checkpoint / recovery
# --------------------------------------------------------------------------

class CheckpointError(ReproError):
    """Errors in checkpoint capture, storage, or restore."""


class RecoveryError(CheckpointError):
    """Rollback recovery could not reconstruct a consistent state."""


class CorruptionError(RecoveryError):
    """Integrity verification found a silently corrupted checkpoint piece
    (digest mismatch, broken chain link, or a dropped piece)."""


class StorageError(ReproError):
    """Errors in the stable-storage model."""


class FaultPlanError(ReproError):
    """A fault-injection plan is malformed or cannot be delivered."""


# --------------------------------------------------------------------------
# Observability
# --------------------------------------------------------------------------

class ObservabilityError(ReproError):
    """Errors in the tracing/metrics layer (bad trace file, metric kind
    mismatch, invalid export target)."""


# --------------------------------------------------------------------------
# Experiments / configuration
# --------------------------------------------------------------------------

class ConfigurationError(ReproError):
    """An experiment or application was configured inconsistently."""


class CalibrationError(ReproError):
    """A workload calibration target cannot be met with given parameters."""

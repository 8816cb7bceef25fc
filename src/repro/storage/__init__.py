"""Stable-storage substrate: disks, arrays, and the checkpoint store.

The paper's feasibility argument compares the incremental bandwidth
against two sinks: the interconnect (QsNet II, 900 MB/s) and secondary
storage (Ultra320 SCSI, 320 MB/s).  This package models the storage
side: a single disk with a serialized write queue, RAID-0 style arrays
that aggregate bandwidth, a buddy node's memory (diskless
checkpointing), and a logical checkpoint store holding versioned
per-rank checkpoint chains.

The three sinks -- :class:`Disk`, :class:`StorageArray` and
:class:`DisklessSink` -- keep one contract, which the checkpoint engine
and its transports call without asking which kind they hold:

``write(nbytes) -> Future``
    A whole write issued now (the ``estimate`` transport); resolves with
    the completion time, or ``None`` when an injected fault lost it.
``reserve(nbytes) -> (done_at, ok)``
    The sink's own side of a deposit whose wire the framed transport
    already simulated: the same accounting as ``write``, but no future
    or event (the caller schedules its own completion).  A diskless
    sink charges only the memcpy here; a disk charges its full write.
``write_duration(nbytes)``
    Seconds a write issued now is expected to take (the copy-on-write
    window).
``bandwidth``
    Peak ingest rate, B/s: the disk's, the stripe set's aggregate, or
    the memcpy into the buddy's memory.
``bytes_written``
    Bytes that reached the sink, as an int.
"""

from repro.storage.models import DiskSpec, SCSI_ULTRA320, IDE_ATA100, RAMDISK
from repro.storage.disk import Disk
from repro.storage.diskless import DisklessSink
from repro.storage.integrity import (ChainVerification, HASH_BANDWIDTH,
                                     PieceVerification, piece_digest)
from repro.storage.raid import StorageArray
from repro.storage.store import CheckpointStore, StoredObject

__all__ = [
    "ChainVerification",
    "CheckpointStore",
    "Disk",
    "DiskSpec",
    "DisklessSink",
    "HASH_BANDWIDTH",
    "IDE_ATA100",
    "PieceVerification",
    "RAMDISK",
    "SCSI_ULTRA320",
    "StorageArray",
    "StoredObject",
    "piece_digest",
]

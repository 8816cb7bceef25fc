"""An MPI-like message-passing runtime on the simulated cluster.

Ranks are simulation processes; each owns a :class:`~repro.proc.Process`
(address space) and a :class:`~repro.net.NIC`.  The API mirrors the
mpi4py conventions the workloads are written against:

- ``comm.send(dest, nbytes, ...)`` injects a message (eager protocol);
- ``msg = yield comm.recv(source, ...)`` blocks a rank body until a
  matching message arrives (wildcards ``ANY_SOURCE``/``ANY_TAG``);
- ``yield from comm.barrier()`` / ``bcast`` / ``reduce`` / ``allreduce``
  / ``gather`` / ``allgather`` / ``alltoall`` are generator collectives
  implemented over point-to-point messages (dissemination / binomial
  tree / ring / pairwise exchange).

The instrumentation library hooks two points, exactly as the paper's
preload library does: receive interception (bounce-buffer deposit) and
per-receive accounting for the data-received-per-timeslice metric.
"""

from repro.mpi.communicator import ANY_SOURCE, ANY_TAG, PostedRecv, RankComm, World
from repro.mpi.runtime import MPIJob, RankContext

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "MPIJob",
    "PostedRecv",
    "RankComm",
    "RankContext",
    "World",
]

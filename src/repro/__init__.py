"""repro: a full reproduction of *On the Feasibility of Incremental
Checkpointing for Scientific Computing* (Sancho, Petrini, Johnson,
Fernandez, Frachtenberg -- IPDPS 2004).

The paper instruments unmodified Fortran/MPI applications with an
``LD_PRELOAD`` library that tracks dirty pages through ``mprotect`` and
SIGSEGV, measures the Incremental Working Set per checkpoint timeslice,
and argues that OS-level incremental checkpointing fits comfortably
inside 2004 network (900 MB/s) and disk (320 MB/s) bandwidth.

This library rebuilds the entire stack in simulation -- paged virtual
memory with protection faults, UNIX processes, a QsNet-style DMA
network, an MPI runtime, the nine calibrated workloads, the
instrumentation library, and a working incremental checkpoint/rollback
engine -- and regenerates every table and figure of the evaluation.

Quickstart::

    from repro.cluster.experiment import paper_config, run_experiment

    result = run_experiment(paper_config("sweep3d", nranks=4, timeslice=1.0))
    print(result.ib().as_row())       # avg/max incremental bandwidth
    print(result.footprint().as_row())

Package map (bottom-up):

===================  ====================================================
``repro.sim``        deterministic discrete-event engine
``repro.mem``        paged address space, protection/dirty bits, faults
``repro.proc``       UNIX process model, syscalls, heap allocator
``repro.net``        links, topology, DMA-capable NIC
``repro.storage``    disks, arrays, checkpoint store
``repro.mpi``        ranks, point-to-point, collectives
``repro.apps``       calibrated workloads (Sage, Sweep3D, NAS BT/SP/LU/FT)
``repro.instrument`` the paper's dirty-page instrumentation library
``repro.metrics``    IWS/IB statistics, period and burst detection
``repro.checkpoint`` full/incremental capture, coordinated commit, recovery
``repro.feasibility`` technology envelope, verdicts, trends, Table 1
``repro.cluster``    node models and the experiment harness
``repro.analytic``   closed-form IB(timeslice) predictions
``repro.trace``      trace persistence
``repro.atomic``     crash-safe artifact writes
===================  ====================================================
"""

__version__ = "1.0.0"

from repro.errors import ReproError

__all__ = ["ReproError", "__version__"]

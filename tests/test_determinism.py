"""End-to-end determinism: identical configurations produce bit-identical
traces -- the property every reproducibility claim in EXPERIMENTS.md
rests on."""

import numpy as np

from repro.cluster.experiment import paper_config, run_experiment


def traces_equal(a, b):
    if len(a) != len(b):
        return False
    return (np.array_equal(a.iws_bytes(), b.iws_bytes())
            and np.array_equal(a.faults(), b.faults())
            and np.array_equal(a.times(), b.times())
            and np.array_equal(a.received_mb(), b.received_mb()))


def test_same_config_same_trace():
    cfg = paper_config("lu", nranks=2, timeslice=0.5, run_duration=10.0)
    r1 = run_experiment(cfg)
    r2 = run_experiment(cfg)
    assert r1.final_time == r2.final_time
    assert r1.iterations == r2.iterations
    for rank in (0, 1):
        assert traces_equal(r1.log(rank), r2.log(rank))


def test_sage_dynamic_allocation_also_deterministic():
    """The dynamic-memory path (mmap base assignment, allocator state)
    must be reproducible too -- restart-in-place depends on it."""
    cfg = paper_config("sage-50MB", nranks=2, timeslice=1.0,
                      run_duration=25.0)
    r1 = run_experiment(cfg)
    r2 = run_experiment(cfg)
    for rank in (0, 1):
        assert traces_equal(r1.log(rank), r2.log(rank))
    # geometry and page versions identical as well
    for p1, p2 in zip(r1.job.processes, r2.job.processes):
        assert p1.memory.state_digest() == p2.memory.state_digest()


def test_different_timeslice_different_trace():
    """Sanity that the comparison is meaningful."""
    a = run_experiment(paper_config("lu", nranks=2, timeslice=0.5,
                                    run_duration=10.0))
    b = run_experiment(paper_config("lu", nranks=2, timeslice=1.0,
                                    run_duration=10.0))
    assert not traces_equal(a.log(0), b.log(0))

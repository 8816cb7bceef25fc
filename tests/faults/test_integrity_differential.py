"""Differential guarantee: integrity verification is free unless it
finds something (or is explicitly billed).

Digests are computed on the host at ``put`` time and chains are scanned
on the host at recovery time -- none of it is scheduled sim traffic.
So with no corruption injected, a run with ``verify_integrity=True``
(the default) must be *bit-identical* -- same slice records, same
failure records, same final time -- to the same run with verification
off.  And when the verify cost IS opted into (``integrity_bandwidth``),
the surcharge must be deterministic: the same run twice produces the
same billed restore times.
"""

import pytest

from repro.apps.synthetic import small_spec
from repro.cluster.experiment import ExperimentConfig
from repro.faults import FaultEvent, FaultKind, FaultPlan, run_with_failures

SPEC = small_spec(name="diff", footprint_mb=6, main_mb=3, period=1.0,
                  passes=1.5, comm_mb=0.25, sub_bursts=1)
CONFIG = ExperimentConfig(spec=SPEC, nranks=3, timeslice=0.5,
                          run_duration=7.0)
PLAN = FaultPlan([FaultEvent(5.3, FaultKind.CRASH, 0)])


def run(**kw):
    kw.setdefault("interval_slices", 2)
    kw.setdefault("full_every", 5)
    return run_with_failures(CONFIG, PLAN, **kw)


def streams(res):
    """Everything the sim decided, as comparable plain data."""
    return {
        "final_time": res.final_time,
        "failures": [(r.time, r.kind, r.victims, r.recovered_seq,
                      r.recovery_life, r.restore_time, r.downtime,
                      r.lost_work, r.restarted_at)
                     for r in res.failures],
        "lives": [
            {
                "t": (life.t_start, life.t_end),
                "committed": list(life.committed),
                "iterations": life.iterations,
                "records": {rank: life.logs[rank].records
                            for rank in sorted(life.logs)},
            }
            for life in res.lives
        ],
    }


def test_integrity_on_without_corruption_is_bit_identical():
    on = run()                             # verify_integrity defaults True
    off = run(verify_integrity=False)
    assert not on.corruptions and not off.corruptions
    assert streams(on) == streams(off)
    # the verified run walked back nowhere: same recovery target
    assert on.metrics.integrity_walkbacks == 0
    # restored memory is the same bits either way
    assert len(on.restored_signatures) == len(off.restored_signatures)
    for sa, sb in zip(on.restored_signatures, off.restored_signatures):
        assert set(sa) == set(sb)
        for rank in sa:
            assert sa[rank] == sb[rank]


def test_clean_run_without_faults_is_bit_identical_too():
    on = run_with_failures(CONFIG, FaultPlan.none(), interval_slices=2,
                           full_every=5)
    off = run_with_failures(CONFIG, FaultPlan.none(), interval_slices=2,
                            full_every=5, verify_integrity=False)
    assert streams(on) == streams(off)


def test_integrity_bandwidth_surcharge_is_deterministic():
    a = run(integrity_bandwidth=200e6)
    b = run(integrity_bandwidth=200e6)
    assert streams(a) == streams(b)
    base = run()
    # billed: strictly more downtime, deterministically derived from
    # the verified chain's bytes
    ra, r0 = a.failures[0], base.failures[0]
    assert ra.recovered_seq == r0.recovered_seq
    chain = base.lives[0].store.chain(0, upto_seq=r0.recovered_seq)
    surcharge = sum(o.nbytes for o in chain) / 200e6
    assert ra.restore_time == pytest.approx(r0.restore_time + surcharge)
    # and the bill only changes downtime accounting, not sim content:
    # the post-restart life replays the same records, shifted in time
    assert len(a.lives) == len(base.lives)
    assert a.lives[1].iterations == base.lives[1].iterations

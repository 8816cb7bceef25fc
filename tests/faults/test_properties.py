"""Property-based invariants of fault-injected recovery.

Seeded generators only (hypothesis with bounded strategies); whatever
the fault plan and checkpoint cadence:

- every recovery chain starts with a full checkpoint;
- a restore served by the first life is bit-identical to the
  failure-free reference at the same sequence;
- lost work, downtime, and wall time stay consistent;
- an empty plan is byte-identical to the plain experiment runner.
"""

import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.synthetic import small_spec
from repro.checkpoint.recovery import RecoveryManager
from repro.cluster.experiment import ExperimentConfig, run_experiment
from repro.faults import FaultEvent, FaultKind, FaultPlan, run_with_failures

SPEC = small_spec(name="prop", footprint_mb=6, main_mb=3, period=1.0,
                  passes=1.5, comm_mb=0.25, sub_bursts=1)
NRANKS = 3
CONFIG = ExperimentConfig(spec=SPEC, nranks=NRANKS, timeslice=0.5,
                          run_duration=8.0)


@functools.lru_cache(maxsize=8)
def reference(interval, full_every):
    """The failure-free run for one checkpoint cadence, computed once."""
    return run_with_failures(CONFIG, FaultPlan.none(),
                             interval_slices=interval, full_every=full_every)


@given(fail_time=st.floats(min_value=0.4, max_value=7.7),
       victim=st.integers(min_value=0, max_value=NRANKS - 1),
       kind=st.sampled_from([FaultKind.CRASH, FaultKind.NIC]),
       full_every=st.integers(min_value=1, max_value=4))
@settings(max_examples=20, deadline=None)
def test_single_fault_recovery_invariants(fail_time, victim, kind,
                                          full_every):
    plan = FaultPlan([FaultEvent(fail_time, kind, victim)])
    res = run_with_failures(CONFIG, plan, interval_slices=2,
                            full_every=full_every)

    assert len(res.failures) == 1
    rec = res.failures[0]
    assert rec.victims == (victim,)
    assert rec.time == fail_time
    assert rec.lost_work >= 0 and rec.downtime >= rec.restore_time

    if rec.recovered_seq is None:
        assert res.metrics.from_scratch == 1
        return

    # the recovery chain always starts with a full checkpoint
    store = res.lives[rec.recovery_life].store
    manager = RecoveryManager(store)
    for rank in range(NRANKS):
        chain = manager.recovery_chain(rank, rec.recovered_seq)
        assert chain[0].kind == "full"
        assert chain[-1].seq == rec.recovered_seq

    # a single fault always fails in life 0, whose pre-fault history is
    # identical to a failure-free run: restored state must match it
    assert rec.recovery_life == 0
    ref = reference(2, full_every)
    for rank in range(NRANKS):
        got = store.find(rank, rec.recovered_seq).payload.state_digest
        want = ref.lives[0].store.find(
            rank, rec.recovered_seq).payload.state_digest
        assert want is not None and got == want


@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       mtbf=st.floats(min_value=3.0, max_value=30.0))
@settings(max_examples=15, deadline=None)
def test_stochastic_plans_are_reproducible(seed, mtbf):
    a = FaultPlan.exponential(mtbf=mtbf, nranks=NRANKS, horizon=20.0,
                              seed=seed)
    b = FaultPlan.exponential(mtbf=mtbf, nranks=NRANKS, horizon=20.0,
                              seed=seed)
    assert a == b
    w1 = FaultPlan.weibull(mtbf=mtbf, nranks=NRANKS, horizon=20.0,
                           seed=seed, shape=0.7)
    w2 = FaultPlan.weibull(mtbf=mtbf, nranks=NRANKS, horizon=20.0,
                           seed=seed, shape=0.7)
    assert w1 == w2


@given(seed=st.integers(min_value=0, max_value=200))
@settings(max_examples=10, deadline=None)
def test_seeded_multi_fault_runs_have_consistent_accounting(seed):
    plan = FaultPlan.exponential(mtbf=5.0, nranks=NRANKS, horizon=25.0,
                                 seed=seed, max_faults=4)
    res = run_with_failures(CONFIG, plan, interval_slices=2, full_every=3)
    m = res.metrics
    assert m.n_failures == len(res.failures)
    assert m.wall_time == res.final_time
    assert 0.0 <= m.efficiency <= m.availability <= 1.0
    assert m.total_downtime == sum(r.downtime for r in res.failures)
    # lives chain up: every life starts where the previous failure's
    # downtime ended
    for rec, life in zip(res.failures, res.lives[1:]):
        assert life.t_start == rec.restarted_at


@given(timeslice=st.sampled_from([0.5, 1.0, 2.0]),
       interval=st.integers(min_value=1, max_value=3))
@settings(max_examples=6, deadline=None)
def test_no_fault_is_byte_identical_to_plain_run(timeslice, interval):
    config = ExperimentConfig(spec=SPEC, nranks=2, timeslice=timeslice,
                              run_duration=6.0)
    ref = run_experiment(config)
    res = run_with_failures(config, FaultPlan.none(),
                            interval_slices=interval)
    assert len(res.lives) == 1 and not res.failures
    assert res.final_time == ref.final_time
    assert res.lives[0].iterations == ref.iterations
    for rank in range(2):
        assert res.lives[0].logs[rank].records == ref.logs[rank].records

"""End-to-end: kill ranks mid-run, recover from the checkpoint chain,
and prove the restored address spaces are bit-identical to a
failure-free run at the same logical time."""

import pytest

from repro.apps.synthetic import small_spec
from repro.cluster.experiment import ExperimentConfig, run_experiment
from repro.cluster.experiment import run_with_failures as experiment_entry
from repro.errors import FaultPlanError, RecoveryError
from repro.faults import (FaultEvent, FaultInjector, FaultKind, FaultPlan,
                          FailureRecoveryDriver, run_with_failures)

# sub_bursts=1 keeps the write pattern free of cross-iteration cursor
# state, so a restarted rank replays exactly the reference writes
SPEC = small_spec(name="e2e", footprint_mb=6, main_mb=3, period=1.0,
                  passes=1.5, comm_mb=0.25, sub_bursts=1)
CONFIG = ExperimentConfig(spec=SPEC, nranks=3, timeslice=0.5,
                          run_duration=10.0)
INTERVAL = 2


def run_reference():
    """Failure-free driver run: same construction, empty plan."""
    return run_with_failures(CONFIG, FaultPlan.none(),
                             interval_slices=INTERVAL, full_every=3)


def head_digests(life, seq):
    """Each rank's capture digest at ``seq``: the state a restore from
    that checkpoint reproduced (the driver raises otherwise)."""
    return {rank: life.store.find(rank, seq).payload.state_digest
            for rank in range(CONFIG.nranks)}


def test_empty_plan_reproduces_run_experiment_byte_for_byte():
    ref = run_experiment(CONFIG)
    res = run_reference()
    assert len(res.lives) == 1 and not res.failures
    assert res.final_time == ref.final_time
    for rank in range(CONFIG.nranks):
        assert res.lives[0].logs[rank].records == ref.logs[rank].records


def test_two_rank_kill_recovers_bit_identical_to_failure_free_run():
    # two fatal faults on two different ranks; the second lands before
    # the restarted life commits anything, so both recoveries are served
    # by life 0's store -- directly comparable to the failure-free run
    plan = FaultPlan([FaultEvent(4.2, FaultKind.CRASH, 1),
                      FaultEvent(5.0, FaultKind.NIC, 2)])
    res = run_with_failures(CONFIG, plan, interval_slices=INTERVAL,
                            full_every=3)
    assert len(res.failures) == 2
    assert len(res.lives) == 3
    victims = {v for rec in res.failures for v in rec.victims}
    assert len(victims) >= 2                       # >= 2 ranks killed
    assert [rec.kind for rec in res.failures] == ["crash", "nic"]

    reference = run_reference()
    for rec in res.failures:
        assert rec.recovery_life == 0
        assert rec.recovered_seq is not None
        want = head_digests(reference.lives[0], rec.recovered_seq)
        assert None not in want.values()
        assert head_digests(res.lives[0], rec.recovered_seq) == want, \
            rec.recovered_seq

    # accounting invariants
    for rec in res.failures:
        assert rec.lost_work >= 0
        assert rec.downtime >= rec.restore_time
        assert rec.restarted_at == rec.time + rec.downtime
    assert res.final_time > reference.final_time   # failures stretch the run
    m = res.metrics
    assert m.n_failures == 2 and m.from_scratch == 0
    assert 0.0 < m.efficiency < 1.0 < res.final_time
    assert m.availability > m.efficiency           # lost work counts too


def test_seeded_plan_kills_two_ranks_and_recovers_bit_identical():
    # seed 7's first two failures hit ranks 1 and 0 and are both served
    # by life 0's store -- the seeded variant of the explicit-plan test
    plan = FaultPlan.exponential(mtbf=6.0, nranks=3, horizon=30.0, seed=7)
    res = run_with_failures(CONFIG, plan, interval_slices=INTERVAL,
                            full_every=3)
    victims = {v for rec in res.failures for v in rec.victims}
    assert len(victims) >= 2
    reference = run_reference().lives[0]
    compared = 0
    for rec in res.failures:
        if rec.recovery_life != 0 or rec.recovered_seq is None:
            continue  # later lives are verified by the restore itself
        want = head_digests(reference, rec.recovered_seq)
        assert None not in want.values()
        assert head_digests(res.lives[0], rec.recovered_seq) == want
        compared += 1
    assert compared >= 2


def test_same_seed_same_metrics_and_traces():
    plan = FaultPlan.exponential(mtbf=6.0, nranks=3, horizon=30.0, seed=11)
    a = run_with_failures(CONFIG, plan, interval_slices=INTERVAL,
                          full_every=3)
    b = run_with_failures(CONFIG, plan, interval_slices=INTERVAL,
                          full_every=3)
    assert a.failures == b.failures
    assert a.metrics == b.metrics
    assert a.final_time == b.final_time
    assert len(a.lives) == len(b.lives)
    for la, lb in zip(a.lives, b.lives):
        for rank in range(CONFIG.nranks):
            assert la.logs[rank].records == lb.logs[rank].records


def test_crash_before_first_commit_restarts_from_scratch():
    plan = FaultPlan([FaultEvent(0.3, FaultKind.CRASH, 0)])
    res = run_with_failures(CONFIG, plan, interval_slices=INTERVAL,
                            full_every=3)
    assert len(res.failures) == 1
    rec = res.failures[0]
    assert rec.recovered_seq is None and rec.recovery_life is None
    assert rec.restore_time == 0.0
    assert res.metrics.from_scratch == 1
    # the rerun still finishes the full configured duration
    assert res.lives[-1].iterations > 0
    assert res.final_time > run_reference().final_time


def test_disk_fault_delays_commit_but_never_breaks_recovery():
    # lose rank 0's checkpoint write at ~2s, then crash at 4.2s: the
    # poisoned sequence must not serve recovery, and the run completes
    plan = FaultPlan([FaultEvent(2.0, FaultKind.DISK, 0, count=1),
                      FaultEvent(4.2, FaultKind.CRASH, 1)])
    res = run_with_failures(CONFIG, plan, interval_slices=INTERVAL,
                            full_every=3)
    assert len(res.failures) == 1
    assert res.lives[0].write_failures  # the disk fault hit a real write
    rec = res.failures[0]
    poisoned = {seq for _, seq in res.lives[0].write_failures}
    assert rec.recovered_seq not in poisoned
    clean = run_with_failures(CONFIG,
                              FaultPlan([FaultEvent(4.2, FaultKind.CRASH, 1)]),
                              interval_slices=INTERVAL, full_every=3)
    # the lost piece can only push the recovery point back, never forward
    assert rec.recovered_seq <= clean.failures[0].recovered_seq
    assert rec.lost_work >= clean.failures[0].lost_work


def test_experiment_entry_point_is_the_driver():
    plan = FaultPlan([FaultEvent(4.2, FaultKind.CRASH, 1)])
    via_experiment = experiment_entry(CONFIG, plan, interval_slices=INTERVAL,
                                      full_every=3)
    direct = run_with_failures(CONFIG, plan, interval_slices=INTERVAL,
                               full_every=3)
    assert via_experiment.failures == direct.failures
    assert via_experiment.final_time == direct.final_time


@pytest.mark.parametrize("transport", ["estimate", "network", "diskless"])
def test_fault_run_checkpoints_as_the_config_says(transport):
    # the config's ckpt_* fields, not driver defaults, set each life's
    # checkpointing (a capture every slice, a full every 8th), and life 0
    # of a fault-free run is built exactly as run_experiment builds it
    config = CONFIG.scaled(ckpt_transport=transport, ckpt_interval_slices=1,
                           ckpt_full_every=8)
    res = run_with_failures(config, FaultPlan.none())
    ref = run_experiment(config)
    life = res.lives[0]
    assert life.transport_stats.mode == transport
    for rank in range(config.nranks):
        assert life.logs[rank].records == ref.logs[rank].records
    assert life.transport_stats.frames == ref.transport_stats.frames
    assert (life.transport_stats.frames > 0) == (transport != "estimate")
    assert len(life.committed) == ref.ckpt_commits > 8
    assert life.committed == ref.ckpt.committed()
    assert [gc.kind for gc in life.committed[:9]] == (
        ["full"] + ["incremental"] * 7 + ["full"])


def test_fault_run_keywords_replace_the_config_fields():
    config = CONFIG.scaled(ckpt_transport="network", ckpt_interval_slices=1)
    res = run_with_failures(config, FaultPlan.none(), interval_slices=2,
                            full_every=3, ckpt_transport="estimate")
    assert (res.config.ckpt_transport, res.config.ckpt_interval_slices,
            res.config.ckpt_full_every) == ("estimate", 2, 3)
    assert res.lives[0].transport_stats.mode == "estimate"
    assert res.lives[0].committed == run_reference().lives[0].committed


def test_driver_parameter_validation():
    with pytest.raises(FaultPlanError):
        FailureRecoveryDriver(CONFIG, FaultPlan.none(), detection_latency=-1.0)
    with pytest.raises(FaultPlanError):
        FailureRecoveryDriver(CONFIG, FaultPlan.none(), max_failures=0)
    with pytest.raises(FaultPlanError):
        FailureRecoveryDriver(
            CONFIG, FaultPlan([FaultEvent(1.0, FaultKind.CRASH, 99)]))


def test_diskless_disk_fault_is_refused_before_any_life_runs(monkeypatch):
    import repro.faults.driver as driver_mod

    def no_life(*args, **kwargs):
        raise AssertionError("a life ran")
    monkeypatch.setattr(driver_mod.FailureRecoveryDriver, "run", no_life)
    plan = FaultPlan([FaultEvent(2.1, FaultKind.DISK, 1)])
    with pytest.raises(FaultPlanError, match="diskless"):
        FailureRecoveryDriver(CONFIG.scaled(ckpt_transport="diskless"), plan)
    with pytest.raises(FaultPlanError, match="diskless"):
        run_with_failures(CONFIG, plan, ckpt_transport="diskless")


def test_max_failures_gives_up():
    # spaced past each downtime window, so three faults really deliver
    plan = FaultPlan([FaultEvent(0.3, FaultKind.CRASH, 0),
                      FaultEvent(1.5, FaultKind.CRASH, 0),
                      FaultEvent(3.0, FaultKind.CRASH, 0)])
    with pytest.raises(RecoveryError):
        run_with_failures(CONFIG, plan, interval_slices=INTERVAL,
                          full_every=3, max_failures=2)

"""Fault plans: ordering, validation, seeded generators, JSON round-trip."""

import json

import pytest

from repro.errors import FaultPlanError
from repro.faults import FaultEvent, FaultKind, FaultPlan


def test_events_sorted_by_time_then_rank():
    plan = FaultPlan([FaultEvent(5.0, FaultKind.CRASH, 1),
                      FaultEvent(2.0, FaultKind.DISK, 0),
                      FaultEvent(5.0, FaultKind.CRASH, 0)])
    assert [(e.time, e.rank) for e in plan] == [(2.0, 0), (5.0, 0), (5.0, 1)]


def test_event_validation():
    with pytest.raises(FaultPlanError):
        FaultEvent(-1.0, FaultKind.CRASH, 0)
    with pytest.raises(FaultPlanError):
        FaultEvent(1.0, FaultKind.CRASH, -1)
    with pytest.raises(FaultPlanError):
        FaultEvent(1.0, FaultKind.DISK, 0, count=0)
    with pytest.raises(FaultPlanError):
        FaultPlan(["not an event"])


def test_fatal_classification():
    assert FaultKind.CRASH.fatal
    assert FaultKind.NIC.fatal
    assert not FaultKind.DISK.fatal
    plan = FaultPlan([FaultEvent(1.0, FaultKind.DISK, 0),
                      FaultEvent(2.0, FaultKind.CRASH, 1)])
    assert plan.fatal_count() == 1
    assert FaultPlan.none().fatal_count() == 0


def test_exponential_same_seed_same_plan():
    a = FaultPlan.exponential(mtbf=5.0, nranks=3, horizon=50.0, seed=7)
    b = FaultPlan.exponential(mtbf=5.0, nranks=3, horizon=50.0, seed=7)
    c = FaultPlan.exponential(mtbf=5.0, nranks=3, horizon=50.0, seed=8)
    assert a == b
    assert hash(a) == hash(b)
    assert a != c
    assert all(0.0 < e.time <= 50.0 for e in a)
    assert all(e.kind is FaultKind.CRASH for e in a)


def test_exponential_per_rank_streams_are_stable():
    # adding ranks must not perturb the failure times of existing ones
    small = FaultPlan.exponential(mtbf=5.0, nranks=2, horizon=40.0, seed=3)
    big = FaultPlan.exponential(mtbf=5.0, nranks=4, horizon=40.0, seed=3)
    for rank in (0, 1):
        assert [e.time for e in small if e.rank == rank] == \
               [e.time for e in big if e.rank == rank]


def test_weibull_plan_and_validation():
    plan = FaultPlan.weibull(mtbf=10.0, nranks=2, horizon=100.0, seed=1,
                             shape=0.7)
    assert len(plan) > 0
    assert plan == FaultPlan.weibull(mtbf=10.0, nranks=2, horizon=100.0,
                                     seed=1, shape=0.7)
    with pytest.raises(FaultPlanError):
        FaultPlan.weibull(mtbf=10.0, nranks=2, horizon=100.0, shape=0.0)
    with pytest.raises(FaultPlanError):
        FaultPlan.exponential(mtbf=0.0, nranks=2, horizon=10.0)
    with pytest.raises(FaultPlanError):
        FaultPlan.exponential(mtbf=1.0, nranks=0, horizon=10.0)
    with pytest.raises(FaultPlanError):
        FaultPlan.exponential(mtbf=1.0, nranks=2, horizon=0.0)


def test_max_faults_truncates():
    full = FaultPlan.exponential(mtbf=2.0, nranks=4, horizon=50.0, seed=0)
    capped = FaultPlan.exponential(mtbf=2.0, nranks=4, horizon=50.0, seed=0,
                                   max_faults=3)
    assert len(full) > 3
    assert len(capped) == 3
    assert capped.events == full.events[:3]


def test_json_round_trip(tmp_path):
    plan = FaultPlan([FaultEvent(1.5, FaultKind.CRASH, 0),
                      FaultEvent(3.0, FaultKind.DISK, 1, count=2)])
    path = tmp_path / "plan.json"
    plan.to_file(path)
    assert FaultPlan.from_file(path) == plan


def test_from_file_errors(tmp_path):
    with pytest.raises(FaultPlanError):
        FaultPlan.from_file(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(FaultPlanError):
        FaultPlan.from_file(bad)
    no_events = tmp_path / "no_events.json"
    no_events.write_text(json.dumps({"faults": []}))
    with pytest.raises(FaultPlanError):
        FaultPlan.from_file(no_events)
    bad_kind = tmp_path / "bad_kind.json"
    bad_kind.write_text(json.dumps(
        {"events": [{"time": 1.0, "kind": "meteor", "rank": 0}]}))
    with pytest.raises(FaultPlanError):
        FaultPlan.from_file(bad_kind)
    missing_field = tmp_path / "missing_field.json"
    missing_field.write_text(json.dumps({"events": [{"time": 1.0}]}))
    with pytest.raises(FaultPlanError):
        FaultPlan.from_file(missing_field)


def test_validate_for_rejects_out_of_range_victims():
    plan = FaultPlan([FaultEvent(1.0, FaultKind.CRASH, 5)])
    plan.validate_for(6)
    with pytest.raises(FaultPlanError):
        plan.validate_for(4)


def test_validate_for_refuses_disk_faults_without_a_checkpoint_disk():
    disk = FaultPlan([FaultEvent(2.1, FaultKind.DISK, 1)])
    for transport in (None, "estimate", "network"):
        disk.validate_for(4, transport)
    with pytest.raises(FaultPlanError, match="diskless"):
        disk.validate_for(4, "diskless")
    # every other kind still means something in buddy memory
    FaultPlan([FaultEvent(2.1, FaultKind.CRASH, 1),
               FaultEvent(3.0, FaultKind.FLIP, 0)]).validate_for(4, "diskless")


def test_after_is_strict():
    plan = FaultPlan([FaultEvent(1.0, FaultKind.CRASH, 0),
                      FaultEvent(2.0, FaultKind.CRASH, 1),
                      FaultEvent(3.0, FaultKind.CRASH, 0)])
    assert [e.time for e in plan.after(2.0)] == [3.0]
    assert len(plan.after(0.0)) == 3
    assert len(plan.after(10.0)) == 0

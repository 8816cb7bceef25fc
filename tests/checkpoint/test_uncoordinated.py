"""Unit and property tests for uncoordinated checkpointing analysis."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import (
    LoggedMessage,
    MessageLogger,
    UncoordinatedSchedule,
    lost_work,
    recovery_line,
)
from repro.errors import CheckpointError


def msg(src, dst, send, recv):
    return LoggedMessage(src=src, dst=dst, send_time=send, recv_time=recv,
                         size=1)


# -- schedules ----------------------------------------------------------------------

def test_schedule_contains_time_zero():
    sched = UncoordinatedSchedule(3, interval=2.0, horizon=10.0)
    for rank in range(3):
        assert sched.times[rank][0] == 0.0


def test_schedule_stagger():
    sched = UncoordinatedSchedule(4, interval=4.0, horizon=12.0,
                                  stagger_fraction=1.0)
    assert sched.times[0][:3] == [0.0, 4.0, 8.0]
    assert sched.times[1][:3] == [0.0, 1.0, 5.0]
    assert sched.times[2][:3] == [0.0, 2.0, 6.0]


def test_coordinated_degenerate():
    sched = UncoordinatedSchedule(3, interval=2.0, horizon=6.0,
                                  stagger_fraction=0.0)
    assert sched.times[0] == sched.times[1] == sched.times[2]


def test_schedule_queries():
    sched = UncoordinatedSchedule(1, interval=2.0, horizon=10.0)
    assert sched.latest_at_or_before(0, 5.0) == 4.0
    assert sched.latest_at_or_before(0, 4.0) == 4.0
    assert sched.latest_strictly_before(0, 4.0) == 2.0
    with pytest.raises(CheckpointError):
        sched.latest_strictly_before(0, 0.0)


def test_schedule_validation():
    with pytest.raises(CheckpointError):
        UncoordinatedSchedule(0, 1.0, 10.0)
    with pytest.raises(CheckpointError):
        UncoordinatedSchedule(2, 0.0, 10.0)
    with pytest.raises(CheckpointError):
        UncoordinatedSchedule(2, 1.0, 10.0, stagger_fraction=1.5)


# -- recovery line --------------------------------------------------------------------

def test_no_messages_no_rollback_cascade():
    sched = UncoordinatedSchedule(2, interval=2.0, horizon=10.0)
    line = recovery_line(sched, [], failure_time=7.0)
    assert line == [sched.latest_at_or_before(0, 7.0),
                    sched.latest_at_or_before(1, 7.0)]


def test_orphan_message_forces_receiver_back():
    # rank 0 checkpoints at 0,4,8; rank 1 at 0,1,5,9 (stagger)
    sched = UncoordinatedSchedule(2, interval=4.0, horizon=10.0)
    # rank 0 -> rank 1, sent at 4.5 (after 0's line of 4.0 at failure 7),
    # received at 4.8 (before 1's line of 5.0): orphan
    line = recovery_line(sched, [msg(0, 1, 4.5, 4.8)], failure_time=7.0)
    assert line[0] == 4.0
    assert line[1] < 4.8  # rolled back before the receive


def test_domino_cascade_through_a_chain():
    """0 -> 1 -> 2: rolling 1 back orphans its earlier message to 2.

    Checkpoints (interval 3, stagger): rank0 {0,3,6,9}, rank1 {0,1,4,7},
    rank2 {0,2,5,8}.  Failure at 7.4 puts the initial line at (6, 7, 5).
    """
    sched = UncoordinatedSchedule(3, interval=3.0, horizon=12.0)
    messages = [
        msg(0, 1, 6.5, 6.8),   # orphan: sent after 6, received before 7
        msg(1, 2, 4.5, 4.7),   # orphan once rank1 rolls back to 4
    ]
    line = recovery_line(sched, messages, failure_time=7.4)
    assert line[0] == 6.0
    assert line[1] == 4.0     # rolled before the 6.8 receive
    assert line[2] == 2.0     # cascaded before the 4.7 receive


def test_messages_after_failure_ignored():
    sched = UncoordinatedSchedule(2, interval=2.0, horizon=20.0)
    line_with = recovery_line(sched, [msg(0, 1, 11.0, 11.5)],
                              failure_time=7.0)
    line_without = recovery_line(sched, [], failure_time=7.0)
    assert line_with == line_without


def test_lost_work():
    assert lost_work([4.0, 5.0], failure_time=7.0) == pytest.approx(5.0)


@given(st.integers(min_value=2, max_value=5),
       st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4),
                          st.floats(0.1, 19.0), st.floats(0.0, 1.0)),
                max_size=30),
       st.floats(min_value=1.0, max_value=20.0))
@settings(max_examples=120, deadline=None)
def test_property_recovery_line_is_consistent(nranks, raw, failure_time):
    """The fixpoint really is consistent: no orphans remain, every line
    is a real checkpoint at or before the failure."""
    sched = UncoordinatedSchedule(nranks, interval=1.7, horizon=25.0)
    messages = []
    for s, d, send, dt in raw:
        s %= nranks
        d %= nranks
        if s != d:
            messages.append(msg(s, d, send, send + dt))
    line = recovery_line(sched, messages, failure_time)
    for r in range(nranks):
        assert line[r] in sched.times[r]
        assert line[r] <= failure_time
    for m in messages:
        if m.recv_time <= failure_time:
            assert not (m.send_time > line[m.src]
                        and m.recv_time <= line[m.dst]), (m, line)


def test_message_logger_records_deliveries():
    from repro.apps.synthetic import SyntheticApp, small_spec
    from repro.mpi import MPIJob
    from repro.sim import Engine

    spec = small_spec(period=1.0, comm_mb=0.5)
    eng = Engine()
    app = SyntheticApp(spec, n_iterations=3)
    job = MPIJob(eng, 2, process_factory=app.process_factory(eng))
    logger = MessageLogger(job)
    job.launch(app.make_body())
    eng.run(detect_deadlock=True)
    assert logger.messages
    for m in logger.messages:
        assert m.recv_time >= m.send_time
        assert m.src != m.dst

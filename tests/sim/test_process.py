"""Unit tests for generator-based simulated processes."""

import pytest

from repro.errors import ProcessStateError
from repro.sim import Engine, Future, SimProcess, Timeout
from repro.sim.process import ProcessState


def test_timeout_advances_clock():
    eng = Engine()
    times = []

    def body():
        times.append(eng.now)
        yield Timeout(1.5)
        times.append(eng.now)
        yield Timeout(0.5)
        times.append(eng.now)

    SimProcess(eng, body())
    eng.run()
    assert times == [0.0, 1.5, 2.0]


def test_process_return_value_resolves_done():
    eng = Engine()

    def body():
        yield Timeout(1.0)
        return 42

    p = SimProcess(eng, body())
    eng.run()
    assert p.state is ProcessState.FINISHED
    assert p.done.resolved
    assert p.done.value == 42


def test_start_delay():
    eng = Engine()
    started = []

    def body():
        started.append(eng.now)
        yield Timeout(0.0)

    SimProcess(eng, body(), start_delay=3.0)
    eng.run()
    assert started == [3.0]


def test_future_blocks_until_resolved():
    eng = Engine()
    fut = Future(eng, label="data")
    got = []

    def consumer():
        value = yield fut
        got.append((eng.now, value))

    def producer():
        yield Timeout(2.0)
        fut.resolve("payload")

    SimProcess(eng, consumer())
    SimProcess(eng, producer())
    eng.run()
    assert got == [(2.0, "payload")]


def test_future_resolved_before_wait_wakes_immediately():
    eng = Engine()
    fut = Future(eng)
    fut.resolve("early")
    got = []

    def body():
        value = yield fut
        got.append(value)

    SimProcess(eng, body())
    eng.run()
    assert got == ["early"]


def test_future_resolve_twice_raises():
    eng = Engine()
    fut = Future(eng)
    fut.resolve(1)
    with pytest.raises(ProcessStateError):
        fut.resolve(2)


def test_future_value_before_resolution_raises():
    eng = Engine()
    fut = Future(eng)
    with pytest.raises(ProcessStateError):
        _ = fut.value


def test_multiple_waiters_on_one_future():
    eng = Engine()
    fut = Future(eng)
    got = []

    def waiter(i):
        value = yield fut
        got.append((i, value))

    for i in range(3):
        SimProcess(eng, waiter(i), name=f"w{i}")
    eng.schedule(1.0, fut.resolve, "x")
    eng.run()
    assert sorted(got) == [(0, "x"), (1, "x"), (2, "x")]


def test_yielding_garbage_fails_the_process():
    eng = Engine()

    def body():
        yield "nonsense"

    p = SimProcess(eng, body())
    eng.run()
    assert p.state is ProcessState.FAILED
    assert isinstance(p.exception, ProcessStateError)


def test_negative_timeout_rejected():
    with pytest.raises(ValueError):
        Timeout(-1.0)


def test_body_exception_captured():
    eng = Engine()

    def body():
        yield Timeout(1.0)
        raise RuntimeError("boom")

    p = SimProcess(eng, body())
    eng.run()
    assert p.state is ProcessState.FAILED
    assert isinstance(p.exception, RuntimeError)
    assert p.done.resolved


def test_non_generator_body_rejected():
    eng = Engine()
    with pytest.raises(ProcessStateError):
        SimProcess(eng, lambda: None)  # type: ignore[arg-type]


def test_kill_stops_process_and_runs_finally():
    eng = Engine()
    cleanup = []

    def body():
        try:
            yield Timeout(100.0)
        finally:
            cleanup.append(eng.now)

    p = SimProcess(eng, body())
    eng.schedule(5.0, p.kill)
    eng.run()
    assert p.state is ProcessState.KILLED
    assert not p.alive
    assert cleanup == [5.0]
    assert eng.now == 5.0  # the 100s wakeup was cancelled


def test_kill_is_idempotent():
    eng = Engine()

    def body():
        yield Timeout(10.0)

    p = SimProcess(eng, body())
    eng.schedule(1.0, p.kill)
    eng.schedule(2.0, p.kill)
    eng.run()
    assert p.state is ProcessState.KILLED


def test_kill_while_waiting_on_future_ignores_later_resolution():
    eng = Engine()
    fut = Future(eng)
    resumed = []

    def body():
        value = yield fut
        resumed.append(value)

    p = SimProcess(eng, body())
    eng.schedule(1.0, p.kill)
    eng.schedule(2.0, fut.resolve, "late")
    eng.run()
    assert resumed == []
    assert p.state is ProcessState.KILLED


def test_two_processes_interleave_deterministically():
    eng = Engine()
    trace = []

    def body(name, dt):
        for _ in range(3):
            trace.append((eng.now, name))
            yield Timeout(dt)

    SimProcess(eng, body("a", 1.0), name="a")
    SimProcess(eng, body("b", 1.5), name="b")
    eng.run()
    assert trace == [
        (0.0, "a"), (0.0, "b"),
        (1.0, "a"), (1.5, "b"),
        (2.0, "a"), (3.0, "b"),
    ]

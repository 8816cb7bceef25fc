"""Generator-based simulated processes.

A process body is a Python generator that ``yield``s blocking primitives:

- :class:`Timeout` -- sleep for a duration of virtual time;
- :class:`Future` -- block until another party resolves it (message
  arrival, disk-write completion, barrier release, ...).

``yield``ing any other value raises :class:`~repro.errors.ProcessStateError`
immediately, which keeps workload code honest.

Processes can be *killed* (failure injection for the rollback-recovery
experiments) and *joined* (their completion is itself a Future).
"""

from __future__ import annotations

import enum
import traceback
from typing import Any, Callable, Generator, Optional

from repro.errors import ProcessStateError
from repro.sim.engine import Engine, Event, PRIORITY_NORMAL


def _dispatch_resume(item: "tuple[SimProcess, Any]") -> None:
    """Resume one process from a coalesced wake batch.

    Module-level so every :meth:`SimProcess._on_future` shares one callable
    identity and same-instant wakes join a single engine event
    (:meth:`Engine.schedule_coalesced`).  A process killed or finished
    after joining the batch is skipped by :meth:`SimProcess._resume`'s
    state guard.
    """
    proc, value = item
    proc._resume(value)


class Timeout:
    """Yield this from a process body to sleep ``delay`` virtual seconds."""

    __slots__ = ("delay",)

    def __init__(self, delay: float):
        if delay < 0:
            raise ValueError(f"negative timeout: {delay}")
        self.delay = float(delay)

    def __repr__(self) -> str:
        return f"Timeout({self.delay!r})"


class Future:
    """A one-shot result that processes can block on.

    ``resolve(value)`` wakes every waiting process with ``value`` as the
    result of its ``yield`` expression.  Resolving twice is an error;
    callbacks added after resolution fire immediately.
    """

    __slots__ = ("engine", "_value", "_resolved", "_callbacks", "label")

    def __init__(self, engine: Engine, label: str = ""):
        self.engine = engine
        self._value: Any = None
        self._resolved = False
        self._callbacks: list[Callable[[Any], None]] = []
        self.label = label

    @property
    def resolved(self) -> bool:
        return self._resolved

    @property
    def value(self) -> Any:
        if not self._resolved:
            raise ProcessStateError(f"future {self.label!r} read before resolution")
        return self._value

    def add_callback(self, fn: Callable[[Any], None]) -> None:
        """Call ``fn(value)`` when resolved (immediately if already)."""
        if self._resolved:
            fn(self._value)
        else:
            self._callbacks.append(fn)

    def resolve(self, value: Any = None) -> None:
        """Resolve with ``value`` and wake all waiters (at the current instant)."""
        if self._resolved:
            raise ProcessStateError(f"future {self.label!r} resolved twice")
        self._resolved = True
        self._value = value
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"resolved={self._value!r}" if self._resolved else "pending"
        return f"<Future {self.label!r} {state}>"


class ProcessState(enum.Enum):
    """Lifecycle of a simulated process."""

    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    FINISHED = "finished"
    FAILED = "failed"      # body raised
    KILLED = "killed"      # externally terminated (failure injection)


class SimProcess:
    """A simulated process driving a generator body on an :class:`Engine`.

    The process starts at ``start_delay`` after creation.  ``proc.done``
    is a :class:`Future` resolved with the generator's return value when
    the body finishes (or with the exception if it fails).
    """

    def __init__(self, engine: Engine, body: Generator[Any, Any, Any],
                 name: str = "proc", start_delay: float = 0.0):
        if not hasattr(body, "send"):
            raise ProcessStateError(
                f"process body must be a generator, got {type(body).__name__}")
        self.engine = engine
        self.name = name
        self._body = body
        self.state = ProcessState.READY
        self.done = Future(engine, label=f"{name}.done")
        self.result: Any = None
        self.exception: Optional[BaseException] = None
        self._wakeup: Optional[Event] = None
        self._waiting_on: Optional[Future] = None
        engine._live_processes += 1
        engine.schedule(start_delay, self._resume, None)

    # -- driving -------------------------------------------------------------

    def _resume(self, send_value: Any) -> None:
        if self.state in (ProcessState.FINISHED, ProcessState.FAILED,
                          ProcessState.KILLED):
            return
        self.state = ProcessState.RUNNING
        self._wakeup = None
        self._waiting_on = None
        try:
            yielded = self._body.send(send_value)
        except StopIteration as stop:
            self._finish(ProcessState.FINISHED, result=stop.value)
            return
        except BaseException as exc:  # body crashed
            self.exception = exc
            self._finish(ProcessState.FAILED, result=exc)
            return
        self._block_on(yielded)

    def _block_on(self, yielded: Any) -> None:
        self.state = ProcessState.BLOCKED
        if isinstance(yielded, Timeout):
            self._wakeup = self.engine.schedule(
                yielded.delay, self._resume, None, priority=PRIORITY_NORMAL)
        elif isinstance(yielded, Future):
            self._waiting_on = yielded
            yielded.add_callback(self._on_future)
        else:
            err = ProcessStateError(
                f"process {self.name!r} yielded {yielded!r}; "
                "only Timeout and Future may be yielded")
            self.exception = err
            self._body.close()
            self._finish(ProcessState.FAILED, result=err)

    def _on_future(self, value: Any) -> None:
        if self.state is ProcessState.BLOCKED:
            # Wake at the current instant but via the queue, preserving
            # deterministic ordering with other same-instant events.
            # Same-instant wakes (a batch delivery releasing many ranks)
            # share one dispatch event, drained in resolution order --
            # the order per-process events would have fired in.  The
            # shared event is deliberately NOT stored in _wakeup: kill()
            # must not cancel other processes' wakes, and _resume's state
            # guard already makes a stale wake for this process a no-op.
            engine = self.engine
            engine.schedule_coalesced(
                engine.now, _dispatch_resume, (self, value),
                priority=PRIORITY_NORMAL)

    def _finish(self, state: ProcessState, result: Any) -> None:
        self.state = state
        self.result = result
        self.engine._live_processes -= 1
        self.done.resolve(result)

    # -- external control ------------------------------------------------------

    def kill(self, reason: str = "killed") -> None:
        """Terminate the process immediately (failure injection).

        The body's ``finally`` blocks run via generator close; the ``done``
        future resolves with ``None``.
        """
        if self.state in (ProcessState.FINISHED, ProcessState.FAILED,
                          ProcessState.KILLED):
            return
        if self._wakeup is not None:
            self._wakeup.cancel()
            self._wakeup = None
        self._waiting_on = None
        self._body.close()
        self._finish(ProcessState.KILLED, result=None)

    @property
    def alive(self) -> bool:
        return self.state in (ProcessState.READY, ProcessState.RUNNING,
                              ProcessState.BLOCKED)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SimProcess {self.name!r} {self.state.value}>"


"""Concurrently supervised workers: the repo's one out-of-process path.

:class:`SupervisedPool` backs every parallel or watchdog run: ``repro
run --jobs N`` (N > 1), any ``repro run --timeout-sec S``, and every
``repro herd`` campaign.  Up to ``jobs`` child processes run
concurrently, each individually supervised — its result pipe, its
process sentinel and its optional deadline are all watched from one
:func:`multiprocessing.connection.wait` loop — and a child that hangs
or dies reports as a ``timeout`` / ``crash`` outcome without stalling
its siblings.  A dead child is always noticed through its sentinel, so
a campaign never waits on work that can no longer arrive.

Termination escalates: ``terminate()`` (SIGTERM), a bounded grace
period, then ``kill()`` (SIGKILL) — a child that ignores or blocks
SIGTERM cannot wedge the campaign (see :func:`stop_child`).

The pool is deliberately generic — the child entry point is injected at
construction — so :mod:`repro.experiments.campaign` can drive it
without an import cycle.
"""

from __future__ import annotations

import multiprocessing
from multiprocessing.connection import wait as _connection_wait
from typing import Any, Callable, Dict, List, NamedTuple, Optional

from repro.util import elapsed_since, wall_clock

#: Default SIGTERM -> SIGKILL escalation grace period.
DEFAULT_GRACE_SEC = 5.0

#: Upper bound on one supervision wait, so deadlines are checked promptly.
_MAX_WAIT_SEC = 0.25


class PoolError(ValueError):
    """Raised on invalid pool configuration or misuse (no free slot)."""


class WorkerOutcome(NamedTuple):
    """One finished supervision: result received, child died, or timed out."""

    key: str
    #: ``result`` | ``crash`` | ``timeout``
    kind: str
    #: The object the child sent back (``result`` outcomes only).
    result: Optional[Any]
    wall_time_sec: float
    exitcode: Optional[int]


def stop_child(process: multiprocessing.Process, grace_sec: float) -> None:
    """Stop ``process``: SIGTERM, wait ``grace_sec``, escalate to SIGKILL.

    ``terminate()`` alone is not enough — a child that installed a
    SIGTERM handler (or is stuck in uninterruptible state) never exits,
    and an unconditional ``join()`` would then block the whole
    campaign.  The unbounded ``join()`` here is safe: SIGKILL cannot be
    caught.
    """
    if process.is_alive():
        process.terminate()
        process.join(grace_sec)
        if process.is_alive():
            process.kill()
    process.join()


class _Worker:
    """One running supervised child."""

    def __init__(
        self,
        key: str,
        process: multiprocessing.Process,
        receiver: "multiprocessing.connection.Connection",
        deadline_sec: Optional[float],
    ) -> None:
        self.key = key
        self.process = process
        self.receiver = receiver
        self.started = wall_clock()
        #: Absolute wall-clock deadline, or None for no timeout.
        self.deadline = (
            self.started + deadline_sec if deadline_sec is not None else None
        )


class SupervisedPool:
    """Up to ``jobs`` concurrently supervised watchdog children.

    ``target`` is the child entry point, called as ``target(payload,
    sender_connection)`` in the child process; it must be a module-level
    function (kyotolint C001: workers pickle their payload under spawn).
    The child reports by sending exactly one object on the connection.
    """

    def __init__(
        self,
        target: Callable[..., None],
        jobs: int,
        timeout_sec: Optional[float] = None,
        grace_sec: float = DEFAULT_GRACE_SEC,
    ) -> None:
        if jobs < 1:
            raise PoolError(f"jobs must be >= 1, got {jobs}")
        if timeout_sec is not None and timeout_sec <= 0:
            raise PoolError(f"timeout_sec must be positive, got {timeout_sec}")
        if grace_sec <= 0:
            raise PoolError(f"grace_sec must be positive, got {grace_sec}")
        self._target = target
        self.jobs = jobs
        self.timeout_sec = timeout_sec
        self.grace_sec = grace_sec
        self._running: Dict[str, _Worker] = {}

    # -- slots -----------------------------------------------------------------

    @property
    def active(self) -> int:
        """Number of children currently supervised."""
        return len(self._running)

    @property
    def free_slots(self) -> int:
        return self.jobs - len(self._running)

    def launch(self, key: str, payload: Any) -> None:
        """Start one supervised child computing ``payload``.

        ``key`` is an opaque caller-chosen id returned on the outcome;
        launching with a key already in flight, or with no free slot, is
        a caller bug and raises.
        """
        if self.free_slots <= 0:
            raise PoolError(f"no free worker slot for {key!r}")
        if key in self._running:
            raise PoolError(f"key {key!r} is already in flight")
        receiver, sender = multiprocessing.Pipe(duplex=False)
        # C002: the injected target (campaign run_one) installs the
        # per-process ambient telemetry recorder by design; nothing
        # flows back but the one pickled result object.
        process = multiprocessing.Process(  # kyotolint: disable=C002
            target=self._target, args=(payload, sender)
        )
        process.daemon = True
        process.start()
        sender.close()
        self._running[key] = _Worker(key, process, receiver, self.timeout_sec)

    # -- supervision -----------------------------------------------------------

    def wait(self, timeout_sec: float) -> List[WorkerOutcome]:
        """Supervise for up to ``timeout_sec``; return concluded outcomes.

        Blocks until at least one child reports, dies or times out — or
        until ``timeout_sec`` elapses — then sweeps every running child
        once.  Returns possibly-empty list; call again to keep
        supervising.
        """
        if not self._running:
            return []
        wait_sec = max(0.0, min(timeout_sec, _MAX_WAIT_SEC, self._nearest_deadline()))
        handles: List[Any] = []
        for worker in self._running.values():
            handles.append(worker.receiver)
            handles.append(worker.process.sentinel)
        _connection_wait(handles, wait_sec)
        outcomes: List[WorkerOutcome] = []
        for key in list(self._running):
            outcome = self._sweep_one(self._running[key])
            if outcome is not None:
                del self._running[key]
                outcomes.append(outcome)
        return outcomes

    def _nearest_deadline(self) -> float:
        deltas = [
            worker.deadline - wall_clock()
            for worker in self._running.values()
            if worker.deadline is not None
        ]
        if not deltas:
            return _MAX_WAIT_SEC
        return max(0.0, min(deltas))

    def _sweep_one(self, worker: _Worker) -> Optional[WorkerOutcome]:
        """Conclude one worker if it reported, died or blew its deadline."""
        if worker.receiver.poll():
            try:
                result = worker.receiver.recv()
            except EOFError:
                return self._conclude(worker, "crash", None)
            return self._conclude(worker, "result", result)
        if not worker.process.is_alive():
            return self._conclude(worker, "crash", None)
        if worker.deadline is not None and wall_clock() >= worker.deadline:
            return self._conclude(worker, "timeout", None)
        return None

    def _conclude(
        self, worker: _Worker, kind: str, result: Optional[Any]
    ) -> WorkerOutcome:
        worker.receiver.close()
        stop_child(worker.process, self.grace_sec)
        return WorkerOutcome(
            key=worker.key,
            kind=kind,
            result=result,
            wall_time_sec=elapsed_since(worker.started),
            exitcode=worker.process.exitcode,
        )

    def shutdown(self) -> None:
        """Stop every running child (escalating) and drop the slots."""
        for key in list(self._running):
            worker = self._running.pop(key)
            worker.receiver.close()
            stop_child(worker.process, self.grace_sec)

    def __enter__(self) -> "SupervisedPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

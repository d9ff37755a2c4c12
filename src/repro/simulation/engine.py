"""Discrete-event simulation engine.

Couples the :class:`~repro.simulation.clock.Clock` with the
:class:`~repro.simulation.events.EventQueue` and runs callbacks in time
order.  Components (schedulers, monitors, workload phase changes) register
one-shot or periodic events; the engine owns time.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.contracts import InvariantChecker
from repro.telemetry import MetricsRecorder, current_recorder

from .clock import Clock
from .events import Event, EventQueue


class SimulationError(Exception):
    """Raised for inconsistent simulation state (ordering bugs, etc.)."""


class Engine:
    """Drives a discrete-event simulation.

    Typical use::

        engine = Engine()
        engine.schedule(0, boot)
        engine.run_until(5_000_000)   # five simulated seconds
    """

    def __init__(
        self,
        clock: Optional[Clock] = None,
        recorder: Optional[MetricsRecorder] = None,
    ) -> None:
        self.clock = clock if clock is not None else Clock()
        self.queue = EventQueue()
        self._running = False
        self._fired = 0
        #: Runtime contracts (docs/static_analysis.md); cheap when disabled.
        self.invariants = InvariantChecker("Engine")
        #: Telemetry hook (docs/telemetry.md); a no-op unless a recorder
        #: is injected or ambient via repro.telemetry.recording().
        self.recorder = recorder if recorder is not None else current_recorder()

    @property
    def now_usec(self) -> int:
        """Current simulated time in microseconds."""
        return self.clock.now_usec

    @property
    def events_fired(self) -> int:
        """Total number of events executed so far."""
        return self._fired

    def schedule(
        self,
        when_usec: int,
        callback: Callable[[], None],
        *,
        name: str = "event",
        priority: int = 10,
    ) -> Event:
        """Schedule ``callback`` at absolute simulated time ``when_usec``."""
        if when_usec < self.clock.now_usec:
            raise SimulationError(
                f"cannot schedule '{name}' in the past "
                f"({when_usec} < now {self.clock.now_usec})"
            )
        return self.queue.schedule(
            when_usec, callback, name=name, priority=priority
        )

    def schedule_after(
        self,
        delay_usec: int,
        callback: Callable[[], None],
        *,
        name: str = "event",
        priority: int = 10,
    ) -> Event:
        """Schedule ``callback`` ``delay_usec`` from now."""
        return self.schedule(
            self.clock.now_usec + delay_usec, callback, name=name, priority=priority
        )

    def schedule_periodic(
        self,
        period_usec: int,
        callback: Callable[[], None],
        *,
        name: str = "periodic",
        priority: int = 10,
        first_at_usec: Optional[int] = None,
    ) -> None:
        """Run ``callback`` every ``period_usec`` forever (until queue clear).

        The callback runs first at ``first_at_usec`` (default: one period
        from now) and re-arms itself after each firing.
        """
        if period_usec <= 0:
            raise ValueError(f"period must be positive, got {period_usec}")
        start = (
            first_at_usec
            if first_at_usec is not None
            else self.clock.now_usec + period_usec
        )

        def fire() -> None:
            callback()
            self.schedule(
                self.clock.now_usec + period_usec, fire, name=name, priority=priority
            )

        self.schedule(start, fire, name=name, priority=priority)

    def cancel(self, event: Event) -> None:
        """Cancel a pending event."""
        self.queue.cancel(event)

    def step(self) -> bool:
        """Execute the single next event.  Returns False if queue is empty."""
        when = self.queue.peek_time()
        if when is None:
            return False
        event = self.queue.pop()
        self.invariants.require(
            event.when_usec >= self.clock.now_usec,
            "clock-monotonic",
            f"event '{event.name}' at {event.when_usec} behind clock "
            f"{self.clock.now_usec}",
        )
        self.clock.advance_to(event.when_usec)
        event.callback()
        self._fired += 1
        self.recorder.inc("sim.events_fired")
        return True

    def run_until(self, until_usec: int) -> None:
        """Run events up to and including time ``until_usec``.

        The clock finishes exactly at ``until_usec`` even if the last event
        fires earlier, so periodic observers see a well-defined horizon.
        """
        if until_usec < self.clock.now_usec:
            raise SimulationError(
                f"horizon {until_usec} is before now {self.clock.now_usec}"
            )
        self._running = True
        try:
            while True:
                when = self.queue.peek_time()
                if when is None or when > until_usec:
                    break
                self.step()
        finally:
            self._running = False
        self.clock.advance_to(until_usec)

    def run_to_completion(self, max_events: int = 10_000_000) -> None:
        """Run until the event queue drains (with a runaway guard)."""
        count = 0
        while self.step():
            count += 1
            if count > max_events:
                raise SimulationError(
                    f"exceeded {max_events} events; runaway periodic event?"
                )

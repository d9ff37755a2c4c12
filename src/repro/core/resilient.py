"""Resilient monitoring: failover chain, circuit breaker, plausibility.

Production QoS stacks treat monitor loss as a first-class failure mode:
the scheduler must keep VMs safe and billing honest when the monitor
lies, stalls or dies.  :class:`ResilientMonitor` wraps an ordered chain
of attribution strategies — typically replay → socket dedication →
direct PMC — and guarantees its ``sample`` **never raises** and never
returns an implausible value:

1. each chain member is tried in order; a :class:`MonitorError` is
   retried ``retries`` times, then the chain fails over to the next
   member,
2. every member has a circuit breaker: after ``breaker_threshold``
   consecutive failures it opens and the member is skipped for a
   cooldown measured in *simulated* ticks, doubling on every re-open
   (deterministic exponential backoff) and capped,
3. a returned value must pass the plausibility guard
   (:func:`repro.core.equation.is_plausible_rate`): finite,
   non-negative, below the physical ceiling, and — once a history
   exists — within ``spike_factor`` of the per-VM EWMA of last-good
   samples.  Implausible values count as member failures,
4. when the whole chain is exhausted, the per-VM EWMA of last-good
   samples is returned: the VM is debited its own recent estimate,
   never a garbage reading and never an unbounded punishment.

Every rejection, retry, failover, fallback and breaker transition is
counted both on the instance (plain ints, for deterministic reports)
and in the ambient telemetry recorder (``resilient.*`` counters,
docs/telemetry.md).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, TYPE_CHECKING

from repro.telemetry import MetricsRecorder, current_recorder

from .equation import is_plausible_rate, max_plausible_rate
from .monitor import MonitorError, PollutionMonitor

if TYPE_CHECKING:  # pragma: no cover
    from repro.hypervisor.system import VirtualizedSystem
    from repro.hypervisor.vm import VirtualMachine


class CircuitBreaker:
    """Deterministic, simulated-time circuit breaker for one monitor.

    States: *closed* (member usable), *open* (member skipped until the
    cooldown expires).  The first open lasts ``cooldown_ticks``; each
    re-open after a failed trial doubles the cooldown up to
    ``max_cooldown_ticks``.  A success closes the breaker and resets
    the backoff.
    """

    def __init__(
        self,
        name: str,
        failure_threshold: int = 3,
        cooldown_ticks: int = 12,
        max_cooldown_ticks: int = 384,
        recorder: Optional[MetricsRecorder] = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if cooldown_ticks < 1:
            raise ValueError(f"cooldown_ticks must be >= 1, got {cooldown_ticks}")
        if max_cooldown_ticks < cooldown_ticks:
            raise ValueError(
                f"max_cooldown_ticks ({max_cooldown_ticks}) must be >= "
                f"cooldown_ticks ({cooldown_ticks})"
            )
        self.name = name
        self.failure_threshold = failure_threshold
        self.cooldown_ticks = cooldown_ticks
        self.max_cooldown_ticks = max_cooldown_ticks
        self.recorder = recorder if recorder is not None else current_recorder()
        self._consecutive_failures = 0
        self._open_until: Optional[int] = None
        self._current_cooldown = cooldown_ticks
        self.opens = 0
        self.closes = 0

    @property
    def state(self) -> str:
        """``"closed"`` or ``"open"`` (trial permission is tick-dependent)."""
        return "open" if self._open_until is not None else "closed"

    def allow(self, tick: int) -> bool:
        """May the member be tried at simulated ``tick``?

        An open breaker allows one trial once the cooldown expired
        (half-open probing); the trial's outcome decides whether it
        closes or re-opens with a doubled cooldown.
        """
        if self._open_until is None:
            return True
        return tick >= self._open_until

    def record_success(self, tick: int) -> None:
        self._consecutive_failures = 0
        if self._open_until is not None:
            self._open_until = None
            self._current_cooldown = self.cooldown_ticks
            self.closes += 1
            self.recorder.inc(f"resilient.breaker.{self.name}.closes")

    def record_failure(self, tick: int) -> None:
        self._consecutive_failures += 1
        was_open = self._open_until is not None
        if was_open or self._consecutive_failures >= self.failure_threshold:
            if was_open:
                # Failed half-open trial: double the backoff.
                self._current_cooldown = min(
                    self._current_cooldown * 2, self.max_cooldown_ticks
                )
            self._open_until = tick + self._current_cooldown
            self.opens += 1
            self.recorder.inc(f"resilient.breaker.{self.name}.opens")


class ResilientMonitor(PollutionMonitor):
    """Failover chain + plausibility guard; ``sample`` never raises."""

    name = "resilient"

    def __init__(
        self,
        system: "VirtualizedSystem",
        chain: Sequence[PollutionMonitor],
        *,
        ewma_alpha: float = 0.3,
        spike_factor: float = 50.0,
        retries: int = 1,
        breaker_threshold: int = 3,
        breaker_cooldown_ticks: int = 12,
        recorder: Optional[MetricsRecorder] = None,
    ) -> None:
        super().__init__(system)
        if not chain:
            raise ValueError("the failover chain needs at least one monitor")
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError(f"ewma_alpha must be in (0, 1], got {ewma_alpha}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.chain: List[PollutionMonitor] = list(chain)
        self.ewma_alpha = ewma_alpha
        self.spike_factor = spike_factor
        self.retries = retries
        self.recorder = recorder if recorder is not None else current_recorder()
        self.breakers: List[CircuitBreaker] = [
            CircuitBreaker(
                monitor.name,
                failure_threshold=breaker_threshold,
                cooldown_ticks=breaker_cooldown_ticks,
                # Cap the exponential backoff at 32 doublings-worth, but
                # never below the base cooldown itself.
                max_cooldown_ticks=max(384, breaker_cooldown_ticks),
                recorder=self.recorder,
            )
            for monitor in self.chain
        ]
        self._ewma: Dict[int, float] = {}
        # Plain-int mirrors of the telemetry counters, so reports stay
        # deterministic even when the ambient recorder is the no-op one.
        self.retries_performed = 0
        self.failovers = 0
        self.rejected_samples = 0
        self.breaker_skips = 0
        self.last_good_fallbacks = 0

    def estimate_of(self, vm: "VirtualMachine") -> float:
        """Current EWMA of the VM's last-good samples (0.0 untrained)."""
        return self._ewma.get(vm.vm_id, 0.0)

    def sample(self, vm: "VirtualMachine") -> float:
        tick = self.system.tick_index
        ceiling = max_plausible_rate(
            self.system.freq_khz_of_vcpu(vm.vcpus[0]), len(vm.vcpus)
        )
        last_good = self._ewma.get(vm.vm_id)
        for index, (monitor, breaker) in enumerate(zip(self.chain, self.breakers)):
            if not breaker.allow(tick):
                self.breaker_skips += 1
                self.recorder.inc("resilient.breaker_skips")
                continue
            value = self._try_member(monitor, breaker, vm, tick)
            if value is not None and is_plausible_rate(
                value,
                last_good=last_good,
                spike_factor=self.spike_factor,
                ceiling=ceiling,
            ):
                breaker.record_success(tick)
                previous = self._ewma.get(vm.vm_id)
                self._ewma[vm.vm_id] = (
                    value
                    if previous is None
                    else self.ewma_alpha * value
                    + (1.0 - self.ewma_alpha) * previous
                )
                return value
            if value is not None:
                # The member answered, but with an implausible reading.
                self.rejected_samples += 1
                self.recorder.inc("resilient.rejected_samples")
                breaker.record_failure(tick)
            if index + 1 < len(self.chain):
                self.failovers += 1
                self.recorder.inc("resilient.failovers")
        self.last_good_fallbacks += 1
        self.recorder.inc("resilient.last_good_fallbacks")
        return self._ewma.get(vm.vm_id, 0.0)

    def _try_member(
        self,
        monitor: PollutionMonitor,
        breaker: CircuitBreaker,
        vm: "VirtualMachine",
        tick: int,
    ) -> Optional[float]:
        """One member's attempts (1 + retries); None when all raised."""
        for attempt in range(self.retries + 1):
            try:
                return monitor.sample(vm)
            except MonitorError:
                breaker.record_failure(tick)
                if attempt < self.retries:
                    self.retries_performed += 1
                    self.recorder.inc("resilient.retries")
        return None

"""Pollution permits and quota accounting.

The "polluters pay" bookkeeping of Section 3.2:

* a VM books ``llc_cap`` — the pollution level (misses/ms) it intends to
  generate,
* at runtime a ``pollution_quota`` scheduling variable is debited by the
  measured ``llc_cap_act`` at every monitoring period,
* a negative quota demotes the VM to priority ``OVER`` — it cannot use
  the processor — and counts one *punishment*,
* at the end of each time slice the VM earns quota proportional to its
  booked ``llc_cap``, eventually returning it to ``UNDER``.

Quota is expressed in the same unit as ``llc_cap`` (misses/ms); a refill
adds ``llc_cap`` per elapsed tick, and a debit subtracts the measured
rate per tick, so a VM polluting at exactly its booked level breaks even.
Accumulated quota is capped at ``quota_max_factor * llc_cap`` so a long
idle period cannot bank an unbounded pollution burst.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.contracts import invariant
from repro.telemetry import NULL_RECORDER, MetricsRecorder


@dataclass
class PollutionAccount:
    """Kyoto scheduling state of one VM."""

    llc_cap: float
    quota_max_factor: float = 3.0
    #: Optional quota floor: when set, quota never sinks below
    #: ``-quota_min_factor * llc_cap``.  ``None`` (the default) keeps the
    #: seed behaviour — an unbounded debt — so enabling the floor is an
    #: explicit resilience choice (a lying monitor must not be able to
    #: park a VM beyond its bank bound; see docs/faults.md).
    quota_min_factor: Optional[float] = None
    #: Optional telemetry hook (docs/telemetry.md); no-op by default.
    recorder: Optional[MetricsRecorder] = field(
        default=None, repr=False, compare=False
    )
    quota: float = field(init=False)
    punishments: int = field(default=0, init=False)
    #: Sum of every measured llc_cap_act debit (for reporting).
    total_debited: float = field(default=0.0, init=False)
    samples: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.llc_cap < 0:
            raise ValueError(f"llc_cap must be >= 0, got {self.llc_cap}")
        if self.quota_max_factor <= 0:
            raise ValueError(
                f"quota_max_factor must be positive, got {self.quota_max_factor}"
            )
        if self.quota_min_factor is not None and self.quota_min_factor <= 0:
            raise ValueError(
                f"quota_min_factor must be positive, got {self.quota_min_factor}"
            )
        if self.recorder is None:
            self.recorder = NULL_RECORDER
        self.quota = self.quota_max

    @property
    def quota_max(self) -> float:
        """Upper bound on banked quota."""
        return self.quota_max_factor * self.llc_cap

    @property
    def quota_min(self) -> Optional[float]:
        """Lower bound on quota debt (None = unbounded, the seed default)."""
        if self.quota_min_factor is None:
            return None
        return -self.quota_min_factor * self.llc_cap

    @property
    def parked(self) -> bool:
        """True when the VM is in priority OVER (quota exhausted)."""
        return self.quota < 0

    def debit(self, measured_llc_cap_act: float) -> bool:
        """Debit one monitoring period's measured pollution.

        Returns True if this debit *newly* punished the VM (UNDER → OVER
        transition), which is what Fig 5's punishment counter counts.
        """
        if measured_llc_cap_act < 0:
            raise ValueError(
                f"measured pollution cannot be negative: {measured_llc_cap_act}"
            )
        # Locals instead of the parked/quota_min properties: this runs
        # once per sampled VM per monitoring period.
        quota = self.quota
        was_parked = quota < 0
        quota -= measured_llc_cap_act
        recorder = self.recorder
        telemetry = recorder.enabled
        if self.quota_min_factor is not None:
            floor = -self.quota_min_factor * self.llc_cap
            if quota < floor:
                quota = floor
                if telemetry:
                    recorder.inc("pollution.floor_clamps")
        self.quota = quota
        self.total_debited += measured_llc_cap_act
        self.samples += 1
        newly_punished = quota < 0 and not was_parked
        if newly_punished:
            self.punishments += 1
        if telemetry:
            recorder.inc("pollution.debited_total", measured_llc_cap_act)
            if newly_punished:
                recorder.inc("pollution.punishments")
        return newly_punished

    @invariant(
        lambda self: self.quota <= self.quota_max + 1e-9, name="quota-cap"
    )
    def refill(self, ticks: int = 1) -> None:
        """Earn quota for ``ticks`` elapsed ticks of the time slice."""
        if ticks < 0:
            raise ValueError(f"ticks must be >= 0, got {ticks}")
        self.quota = min(self.quota + self.llc_cap * ticks, self.quota_max)

    @property
    def mean_measured(self) -> float:
        """Average measured llc_cap_act across all samples so far."""
        if self.samples == 0:
            return 0.0
        return self.total_debited / self.samples

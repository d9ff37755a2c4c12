"""Hardware performance-monitoring counters (PMCs).

Models the per-core counters Kyoto reads: ``LLC_MISSES``,
``UNHALTED_CORE_CYCLES`` and ``INSTRUCTIONS_RETIRED``.  Real counters are
fixed-width MSRs that wrap; we model 48-bit counters (the common width on
Intel parts) so that overflow handling — something perfctr-xen has to deal
with — can be exercised by tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Tuple


class PmcEvent(Enum):
    """Counter events used by the Kyoto monitoring system."""

    LLC_MISSES = "llc_misses"
    UNHALTED_CORE_CYCLES = "unhalted_core_cycles"
    INSTRUCTIONS_RETIRED = "instructions_retired"
    LLC_REFERENCES = "llc_references"


#: The one fixed event order.  Every counter bank, perfctr baseline and
#: per-vCPU account row is a sequence indexed by position in this tuple,
#: so the virtualisation hot path never hashes an enum member.
EVENTS: Tuple[PmcEvent, ...] = tuple(PmcEvent)
#: Position of each event in :data:`EVENTS`.
EVENT_INDEX: Dict[PmcEvent, int] = {event: index for index, event in enumerate(EVENTS)}


#: Width of the modelled counters, in bits (Intel architectural PMCs).
COUNTER_BITS = 48
COUNTER_MASK = (1 << COUNTER_BITS) - 1


@dataclass
class HardwareCounter:
    """One wrapping hardware counter."""

    event: PmcEvent
    raw: int = 0

    def add(self, amount: int) -> None:
        """Increment the counter, wrapping at 2**48.

        Contract relied on by the batched tick engine: integer addition
        modulo ``2**48`` is associative, so ``add(a); add(b)`` and
        ``add(a + b)`` leave the same raw value.  Per-sub-step deltas may
        therefore be coalesced into one flush — but only between reads:
        any code that can observe ``raw`` mid-batch (a context switch
        virtualising the bank, a sampling window) must be preceded by a
        flush of the pending deltas.
        """
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.raw = (self.raw + amount) & COUNTER_MASK

    def read(self) -> int:
        """Current raw value."""
        return self.raw

    def write(self, value: int) -> None:
        """Set the raw value (privileged operation, used on restore)."""
        self.raw = value & COUNTER_MASK


def delta(prev_raw: int, cur_raw: int) -> int:
    """Events counted between two raw readings, wrap-aware.

    ``prev_raw`` is the earlier reading, ``cur_raw`` the later one — the
    order the sampling loop produces them.  A single wrap between the two
    samples is handled correctly; more than one wrap is indistinguishable
    from fewer events (as on real hardware).  Wrap handling lives here and
    only here; callers must never subtract raw readings directly.
    """
    return (cur_raw - prev_raw) & COUNTER_MASK


class CoreCounters:
    """The PMC bank of one physical core."""

    def __init__(self, core_id: int) -> None:
        self.core_id = core_id
        #: One live counter per event, in :data:`EVENTS` order.
        self.counters: Tuple[HardwareCounter, ...] = tuple(
            HardwareCounter(event) for event in EVENTS
        )

    def add(self, event: PmcEvent, amount: int) -> None:
        """Count ``amount`` occurrences of ``event`` on this core."""
        self.counters[EVENT_INDEX[event]].add(amount)

    def counter(self, event: PmcEvent) -> HardwareCounter:
        """The live counter object for ``event``.

        Counter objects are created once per bank and mutated in place
        (``write`` included), so hot paths may hold the reference and
        call :meth:`HardwareCounter.add` directly.
        """
        return self.counters[EVENT_INDEX[event]]

    def read(self, event: PmcEvent) -> int:
        """Raw value of ``event``'s counter."""
        return self.counters[EVENT_INDEX[event]].read()

    def write(self, event: PmcEvent, value: int) -> None:
        """Overwrite ``event``'s counter (context-switch restore)."""
        self.counters[EVENT_INDEX[event]].write(value)

    def raw_values(self) -> List[int]:
        """Raw values of all counters, in :data:`EVENTS` order."""
        return [counter.raw for counter in self.counters]

    def read_all(self) -> Dict[PmcEvent, int]:
        """Snapshot all counters."""
        return dict(zip(EVENTS, self.raw_values()))

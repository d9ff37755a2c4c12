"""perfctr-xen-style counter virtualisation.

The physical PMCs of a core count whatever runs there; to attribute events
to a *vCPU*, the hypervisor must sample the counters at every context
switch and accumulate the deltas into per-vCPU accounts.  That is what
perfctr-xen [18] does and what KS4Xen builds upon; this module reproduces
the mechanism, including wrap-aware deltas.

Usage from the hypervisor::

    virt = PerfctrVirtualizer(core_counters_by_id)
    virt.context_switch_in(vcpu_id, core_id)      # remember baseline
    ... core counters advance while the vCPU runs ...
    virt.context_switch_out(vcpu_id, core_id)     # bank the deltas

``account(vcpu_id)`` then exposes cumulative per-vCPU counts, and
``sample(vcpu_id)`` returns deltas since the previous sample — exactly the
quantities equation 1 needs.  ``sample_row`` and ``switch_out_row`` are
the same primitives returning int lists in
:data:`~repro.pmc.counters.EVENTS` order; the event-keyed dicts are
views over them, and the hot paths (the monitors, the hypervisor's
context switch) index the rows directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .counters import EVENT_INDEX, EVENTS, CoreCounters, HardwareCounter, PmcEvent, delta


def _zero_row() -> List[int]:
    return [0] * len(EVENTS)


@dataclass
class VcpuPmcAccount:
    """Cumulative virtualised counters of one vCPU.

    Both rows are int lists indexed by position in
    :data:`~repro.pmc.counters.EVENTS`; :meth:`read` is the event-keyed
    view.
    """

    vcpu_id: int
    totals: List[int] = field(default_factory=_zero_row)
    #: Values of ``totals`` at the previous monitoring sample.
    last_sample: List[int] = field(default_factory=_zero_row)

    def read(self, event: PmcEvent) -> int:
        return self.totals[EVENT_INDEX[event]]


class PerfctrError(Exception):
    """Raised on context-switch protocol violations."""


class PerfctrVirtualizer:
    """Per-vCPU virtualisation of per-core hardware counters."""

    def __init__(self, core_counters: Dict[int, CoreCounters]) -> None:
        self._cores = core_counters
        self._accounts: Dict[int, VcpuPmcAccount] = {}
        # vcpu_id -> (the core's counters, their baseline raw values), both
        # in EVENTS order; flush_running re-bases the baselines in place.
        self._active: Dict[int, Tuple[Tuple[HardwareCounter, ...], List[int]]] = {}

    def account(self, vcpu_id: int) -> VcpuPmcAccount:
        """The cumulative account of ``vcpu_id`` (created on first use)."""
        account = self._accounts.get(vcpu_id)
        if account is None:
            account = self._accounts[vcpu_id] = VcpuPmcAccount(vcpu_id)
        return account

    def retire_account(self, vcpu_id: int) -> None:
        """Drop a retired vCPU's cumulative account.

        The vCPU must already be switched out (the hypervisor deschedules
        it before retiring): retiring a still-active vCPU would silently
        lose its un-banked deltas.
        """
        if vcpu_id in self._active:
            raise PerfctrError(
                f"vCPU {vcpu_id} is still switched in; deschedule it "
                f"before retiring its account"
            )
        self._accounts.pop(vcpu_id, None)

    def context_switch_in(self, vcpu_id: int, core_id: int) -> None:
        """Record counter baselines when ``vcpu_id`` starts on ``core_id``."""
        if vcpu_id in self._active:
            raise PerfctrError(
                f"vCPU {vcpu_id} switched in twice without switching out"
            )
        bank = self._cores[core_id]
        self._active[vcpu_id] = (bank.counters, bank.raw_values())

    def context_switch_out(self, vcpu_id: int) -> Dict[PmcEvent, int]:
        """Bank counter deltas when ``vcpu_id`` leaves its core."""
        return dict(zip(EVENTS, self.switch_out_row(vcpu_id)))

    def switch_out_row(self, vcpu_id: int) -> List[int]:
        """:meth:`context_switch_out`, returning the deltas as an EVENTS row."""
        try:
            counters, baselines = self._active.pop(vcpu_id)
        except KeyError:
            raise PerfctrError(
                f"vCPU {vcpu_id} switched out but was never switched in"
            ) from None
        return self._bank(self.account(vcpu_id).totals, counters, baselines)

    @staticmethod
    def _bank(
        totals: List[int],
        counters: Tuple[HardwareCounter, ...],
        baselines: List[int],
    ) -> List[int]:
        """Add the deltas since ``baselines`` to ``totals`` and re-base.

        Returns the deltas in EVENTS order; ``baselines`` then holds the
        current raw values, as a fresh switch-in would.
        """
        deltas = []
        for index, counter in enumerate(counters):
            raw = counter.raw
            amount = delta(baselines[index], raw)
            baselines[index] = raw
            totals[index] += amount
            deltas.append(amount)
        return deltas

    def is_running(self, vcpu_id: int) -> bool:
        """True if the vCPU is currently switched in."""
        return vcpu_id in self._active

    def flush_running(self, vcpu_id: int) -> None:
        """Bank deltas for a running vCPU without switching it out.

        Equivalent to an out+in pair; used by the periodic monitor so it
        can sample a vCPU mid-quantum.
        """
        active = self._active.get(vcpu_id)
        if active is not None:
            self._bank(self.account(vcpu_id).totals, *active)

    def sample(self, vcpu_id: int) -> Dict[PmcEvent, int]:
        """Deltas of the cumulative account since the previous sample.

        This is the monitoring primitive: KS4Xen calls it once per
        monitoring period and feeds ``LLC_MISSES`` and
        ``UNHALTED_CORE_CYCLES`` into equation 1.
        """
        return dict(zip(EVENTS, self.sample_row(vcpu_id)))

    def sample_row(self, vcpu_id: int) -> List[int]:
        """:meth:`sample`, returning the deltas as an EVENTS row.

        A running vCPU is banked in place first (as :meth:`flush_running`
        does), so the row covers every event counted up to now.
        """
        account = self.account(vcpu_id)
        totals = account.totals
        active = self._active.get(vcpu_id)
        if active is not None:
            self._bank(totals, *active)
        deltas = [now - then for now, then in zip(totals, account.last_sample)]
        account.last_sample = totals.copy()
        return deltas

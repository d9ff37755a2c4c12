"""The Xen credit scheduler (XCS).

Reproduces the accounting structure described in Section 3.2 of the paper
and in Cherkasova et al. [16]:

* each vCPU holds ``remainCredit``; running burns
  :data:`CREDITS_PER_TICK` per 10 ms tick,
* every 30 ms time slice, the accounting pass hands out new credits —
  weight-proportional among the runnable vCPUs of each core, clipped by
  the domain's optional *cap*,
* a vCPU with positive credits has priority ``UNDER``; once its credits
  are exhausted it drops to ``OVER``,
* scheduling picks ``UNDER`` vCPUs round-robin; ``OVER`` vCPUs only run
  work-conservingly when no ``UNDER`` vCPU wants the core — except capped
  vCPUs, which are parked outright when out of credits (a cap is a hard
  limit even on an idle machine).

KS4Xen (:mod:`repro.core.ks4xen`) subclasses this and adds the pollution
permit, exactly as the paper layers it on XCS.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, TYPE_CHECKING

from .base import Scheduler

if TYPE_CHECKING:  # pragma: no cover
    from repro.hypervisor.vcpu import VCpu

#: Credits burned per tick of execution (Xen: 100).
CREDITS_PER_TICK = 100


class Priority(Enum):
    """XCS vCPU priorities."""

    UNDER = "UNDER"
    OVER = "OVER"


@dataclass
class CreditAccount:
    """Scheduling state of one vCPU under XCS."""

    credits: float
    weight: int
    cap_percent: Optional[float]

    @property
    def priority(self) -> Priority:
        return Priority.UNDER if self.credits > 0 else Priority.OVER


class CreditScheduler(Scheduler):
    """Xen's credit scheduler."""

    name = "xcs"

    def __init__(self) -> None:
        super().__init__()
        self.accounts: Dict[int, CreditAccount] = {}
        # Round-robin cursor per core: vCPU gids in service order.
        self._rr_order: Dict[int, List[int]] = {}
        # Consecutive ticks the current occupant has been running per
        # core, and whose stint it is; a vCPU keeps the core for a whole
        # time slice before rotating.  Tracking the owner matters: a
        # replacement occupant must start a fresh stint rather than
        # inherit (and be charged for) its predecessor's ticks.
        self._stint: Dict[int, int] = {}
        self._stint_gid: Dict[int, Optional[int]] = {}
        # Freshly woken UNDER vCPUs get BOOST: they preempt at the next
        # scheduling decision (Xen's latency optimisation for I/O VMs).
        self._boosted: set = set()
        # Registered vCPUs that no pin keeps off other cores: with none,
        # an idle core has nothing to steal.
        self._unpinned = 0

    # -- admission ---------------------------------------------------------------

    def on_vcpu_registered(self, vcpu: "VCpu", core_id: int) -> None:
        config = vcpu.vm.config
        per_vcpu_cap = (
            config.cap_percent / config.num_vcpus
            if config.cap_percent is not None
            else None
        )
        self.accounts[vcpu.gid] = CreditAccount(
            credits=float(CREDITS_PER_TICK * self.system.ticks_per_slice),
            weight=config.weight,
            cap_percent=per_vcpu_cap,
        )
        self._rr_order.setdefault(core_id, []).append(vcpu.gid)
        if vcpu.pinned_core is None:
            self._unpinned += 1

    def account(self, vcpu: "VCpu") -> CreditAccount:
        return self.accounts[vcpu.gid]

    def on_vcpu_unregistered(self, vcpu: "VCpu", core_id: int) -> None:
        gid = vcpu.gid
        del self.accounts[gid]
        order = self._rr_order.get(core_id)
        if order is not None and gid in order:
            order.remove(gid)
        self._boosted.discard(gid)
        if vcpu.pinned_core is None:
            self._unpinned -= 1
        # A retired vCPU must not be charged to a successor's stint, nor
        # keep owning a core's slice.
        for stint_core, stint_gid in list(self._stint_gid.items()):
            if stint_gid == gid:
                self._stint[stint_core] = 0
                self._stint_gid[stint_core] = None

    def on_vcpu_reassigned(self, vcpu, old_core, new_core) -> None:
        if old_core is not None and vcpu.gid in self._rr_order.get(old_core, []):
            self._rr_order[old_core].remove(vcpu.gid)
        self._rr_order.setdefault(new_core, []).append(vcpu.gid)

    def on_vcpu_pinned(self, vcpu) -> None:
        self._unpinned -= 1

    # -- placement ---------------------------------------------------------------

    def _candidates(self, core_id: int) -> List["VCpu"]:
        order = self._rr_order.get(core_id)
        if not order:
            return []
        by_gid = self._vcpu_by_gid
        return [
            vcpu
            for vcpu in (by_gid[gid] for gid in order)
            if vcpu.runnable and not self.is_parked(vcpu)
        ]

    def on_vcpu_wake(self, vcpu) -> None:
        if self.accounts[vcpu.gid].priority is Priority.UNDER:
            self._boosted.add(vcpu.gid)
            self.system.recorder.inc("credit.boosts")

    def _pick(self, core_id: int) -> Optional["VCpu"]:
        boosted = self._boosted
        if not boosted:
            # Fast path: with no boosted vCPU anywhere, the first UNDER
            # candidate in round-robin order wins outright, so the
            # candidate filter fuses into one early-exiting scan instead
            # of building the candidate list on every refill.
            order = self._rr_order.get(core_id)
            if not order:
                return self._steal(core_id)
            accounts = self.accounts
            by_gid = self._vcpu_by_gid
            fast_first_uncapped: Optional["VCpu"] = None
            for gid in order:
                vcpu = by_gid[gid]
                if not vcpu.runnable or self.is_parked(vcpu):
                    continue
                account = accounts[gid]
                if account.credits > 0:  # UNDER
                    return vcpu
                if (
                    fast_first_uncapped is None
                    and account.cap_percent is None
                ):
                    fast_first_uncapped = vcpu
            if fast_first_uncapped is not None:
                return fast_first_uncapped
            return self._steal(core_id)
        candidates = self._candidates(core_id)
        if not candidates:
            return self._steal(core_id)
        accounts = self.accounts
        boosted = self._boosted
        first_under: Optional["VCpu"] = None
        first_uncapped: Optional["VCpu"] = None
        for vcpu in candidates:
            account = accounts[vcpu.gid]
            if account.credits > 0:  # UNDER
                if boosted and vcpu.gid in boosted:
                    return vcpu
                if first_under is None:
                    first_under = vcpu
            if first_uncapped is None and account.cap_percent is None:
                first_uncapped = vcpu
        if first_under is not None:
            return first_under
        # Work-conserving: run an OVER vCPU, but never one that is capped —
        # a cap is a hard limit.  (first_uncapped can only be reached when
        # no UNDER candidate exists, so every remaining candidate is OVER.)
        if first_uncapped is not None:
            return first_uncapped
        return self._steal(core_id)

    def _steal(self, core_id: int) -> Optional["VCpu"]:
        """SMP load balancing: an idle core pulls a waiting, unpinned
        UNDER vCPU from another core's runqueue (Xen's work stealing).

        Stealing only crosses socket boundaries as a last resort — moving
        a vCPU away from its warm LLC is expensive (the Fig 9 lesson).
        With every vCPU pinned there is nothing to steal, and no runqueue
        is walked.
        """
        if not self._unpinned:
            return None
        machine = self.system.machine
        my_socket = machine.core(core_id).socket_id
        accounts = self.accounts
        by_gid = self._vcpu_by_gid
        rr_order = self._rr_order
        is_parked = self.is_parked
        # Same-socket cores first, remote sockets only as a fallback;
        # within a pass, cores are scanned in machine order and the first
        # stealable vCPU wins (matching Xen's runqueue walk).  The
        # predicates are pure, so testing them cheapest first picks the
        # vCPU a runnable/not-parked candidate filter would; every queued
        # gid has an account, so the credit lookup cannot raise early.
        for want_same_socket in (True, False):
            for other in machine.cores:
                other_id = other.core_id
                if other_id == core_id:
                    continue
                if (other.socket_id == my_socket) is not want_same_socket:
                    continue
                for gid in rr_order.get(other_id, ()):
                    vcpu = by_gid[gid]
                    if (
                        vcpu.current_core is None  # not running
                        and vcpu.pinned_core is None
                        and accounts[gid].credits > 0  # UNDER
                        and vcpu.runnable
                        and not is_parked(vcpu)
                    ):
                        self.reassign_vcpu(vcpu, core_id)
                        self.system.recorder.inc("credit.steals")
                        return vcpu
        return None

    def on_tick_start(self, tick_index: int) -> None:
        for core in self.system.machine.cores:
            choice = self._pick(core.core_id)
            if core.running is not choice:
                if core.running is not None:
                    self.system.context_switch(core, None)
                if choice is not None:
                    self.system.context_switch(core, choice)

    def refill_core(self, core) -> None:
        choice = self._pick(core.core_id)
        if choice is not None and core.running is not choice:
            if core.running is not None:
                self.system.context_switch(core, None)
            self.system.context_switch(core, choice)

    # -- accounting ----------------------------------------------------------------

    def on_tick_end(self, tick_index: int) -> None:
        for core in self.system.machine.cores:
            core_id = core.core_id
            vcpu = core.running
            if vcpu is None:
                self._stint[core_id] = 0
                self._stint_gid[core_id] = None
                continue
            account = self.accounts[vcpu.gid]
            account.credits -= CREDITS_PER_TICK
            self.system.recorder.inc("credit.credits_burned", CREDITS_PER_TICK)
            # BOOST lasts until the vCPU has been serviced once.
            self._boosted.discard(vcpu.gid)
            # A vCPU owns the core for a full time slice (Xen: 30 ms)
            # before the round-robin order rotates — unless its credits
            # ran out earlier.  The slice is per vCPU: when the occupant
            # changed since the last tick (block, preemption, steal), the
            # new occupant starts its stint at zero instead of being
            # charged the ticks its predecessor ran.
            if self._stint_gid.get(core_id) == vcpu.gid:
                stint = self._stint.get(core_id, 0) + 1
            else:
                stint = 1
            if stint >= self.system.ticks_per_slice or account.credits <= 0:
                order = self._rr_order[core_id]
                if vcpu.gid in order:
                    order.remove(vcpu.gid)
                    order.append(vcpu.gid)
                stint = 0
            self._stint[core_id] = stint
            self._stint_gid[core_id] = vcpu.gid

    def on_accounting(self, tick_index: int) -> None:
        self.system.recorder.inc("credit.accounting_passes")
        slice_credits = float(CREDITS_PER_TICK * self.system.ticks_per_slice)
        by_gid = self._vcpu_by_gid
        for core in self.system.machine.cores:
            # The per-core round-robin order holds exactly the vCPUs
            # assigned to the core; iterating it beats scanning every
            # registered vCPU per core.  Refills are per-account and
            # weights are integers, so iteration order cannot change
            # the resulting credits.
            active = [
                v
                for v in (
                    by_gid[gid] for gid in self._rr_order.get(core.core_id, ())
                )
                if v.runnable
            ]
            if not active:
                continue
            total_weight = sum(self.accounts[v.gid].weight for v in active)
            for vcpu in active:
                account = self.accounts[vcpu.gid]
                share = slice_credits * account.weight / total_weight
                if account.cap_percent is not None:
                    share = min(share, slice_credits * account.cap_percent / 100.0)
                account.credits = min(account.credits + share, slice_credits)
                account.credits = max(account.credits, -slice_credits)

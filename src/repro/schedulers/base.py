"""Scheduler interface.

A scheduler owns vCPU placement: at every tick start it decides, for each
core, which vCPU runs; at tick end it burns credits/accounts runtime; at
every accounting period (Xen's 30 ms time slice) it refills budgets.

The Kyoto extensions (KS4Xen, KS4Linux, KS4Pisces) subclass the concrete
schedulers and add pollution enforcement through the ``is_parked`` hook —
mirroring how the real KS4Xen is a ~110 LOC patch on top of the credit
scheduler rather than a new scheduler.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.hypervisor.system import VirtualizedSystem
    from repro.hypervisor.vcpu import VCpu
    from repro.hypervisor.vm import VirtualMachine


class Scheduler(ABC):
    """Base class of all vCPU schedulers."""

    name = "abstract"

    def __init__(self) -> None:
        self.system: Optional["VirtualizedSystem"] = None
        #: Static vCPU -> core assignment (pinning or balance-at-boot).
        self.assigned_core: Dict[int, int] = {}
        self._vcpus: List["VCpu"] = []
        #: gid -> vCPU lookup, maintained on admission.  Placement runs
        #: per core per tick; rebuilding this map there is the dominant
        #: scheduler cost, so subclasses read this cache instead.
        self._vcpu_by_gid: Dict[int, "VCpu"] = {}

    # -- wiring -----------------------------------------------------------------

    def attach(self, system: "VirtualizedSystem") -> None:
        """Called once by the system when it takes ownership."""
        self.system = system

    def register_vcpu(self, vcpu: "VCpu") -> None:
        """Admit a vCPU; assigns it a core (its pin, or least loaded)."""
        if self.system is None:
            raise RuntimeError("scheduler not attached to a system")
        self._vcpus.append(vcpu)
        self._vcpu_by_gid[vcpu.gid] = vcpu
        if vcpu.pinned_core is not None:
            core_id = vcpu.pinned_core
        else:
            core_id = self._least_loaded_core()
        self.assigned_core[vcpu.gid] = core_id
        self.on_vcpu_registered(vcpu, core_id)

    def _least_loaded_core(self) -> int:
        loads = {core.core_id: 0 for core in self.system.machine.cores}
        for __, core_id in self.assigned_core.items():
            loads[core_id] = loads.get(core_id, 0) + 1
        return min(loads, key=lambda cid: (loads[cid], cid))

    def unregister_vcpu(self, vcpu: "VCpu") -> None:
        """Retire a vCPU: drop it from the run state and all queues.

        The inverse of :meth:`register_vcpu`.  The system deschedules the
        vCPU before calling this, so no core is running it.
        """
        gid = vcpu.gid
        if gid not in self._vcpu_by_gid:
            raise RuntimeError(f"vCPU gid {gid} is not registered")
        self._vcpus.remove(vcpu)
        del self._vcpu_by_gid[gid]
        core_id = self.assigned_core.pop(gid)
        self.on_vcpu_unregistered(vcpu, core_id)

    def on_vm_retiring(self, vm: "VirtualMachine") -> None:
        """Called by the system at the start of :meth:`retire_vm`, while
        the VM's vCPUs are still schedulable and measurable.

        The default settles the VM's pollution account when a Kyoto
        engine is attached (every KS4* strategy exposes ``self.kyoto``),
        so all four Kyoto schedulers get settlement without overriding.
        """
        kyoto = getattr(self, "kyoto", None)
        if kyoto is not None:
            kyoto.retire_vm(vm)

    def reassign_vcpu(self, vcpu: "VCpu", core_id: int) -> None:
        """Move a vCPU's static assignment (used after migration)."""
        old_core = self.assigned_core.get(vcpu.gid)
        self.assigned_core[vcpu.gid] = core_id
        if old_core != core_id:
            self.on_vcpu_reassigned(vcpu, old_core, core_id)

    def on_vcpu_reassigned(
        self, vcpu: "VCpu", old_core: Optional[int], new_core: int
    ) -> None:
        """Per-scheduler bookkeeping after a migration (optional)."""

    def on_vcpu_pinned(self, vcpu: "VCpu") -> None:
        """Called after :meth:`~repro.hypervisor.system.VirtualizedSystem.
        migrate_vcpu` pins a previously unpinned vCPU (optional)."""

    def vcpus_on_core(self, core_id: int) -> List["VCpu"]:
        """vCPUs assigned to ``core_id``, in registration order."""
        return [v for v in self._vcpus if self.assigned_core[v.gid] == core_id]

    @property
    def vcpus(self) -> List["VCpu"]:
        return list(self._vcpus)

    # -- subclass hooks -----------------------------------------------------------

    def on_vcpu_registered(self, vcpu: "VCpu", core_id: int) -> None:
        """Per-scheduler admission bookkeeping (optional)."""

    def on_vcpu_unregistered(self, vcpu: "VCpu", core_id: int) -> None:
        """Per-scheduler retirement bookkeeping (optional).  ``core_id``
        is the core the vCPU was assigned to when it was retired."""

    def on_vcpu_wake(self, vcpu: "VCpu") -> None:
        """Called when a blocked vCPU becomes runnable again (optional;
        Xen's credit scheduler uses it for BOOST priority)."""

    def refill_core(self, core) -> None:
        """Called when a core's vCPU blocked mid-tick: place a runnable
        replacement immediately instead of idling until the next tick
        (real schedulers reschedule on block).  Default: leave idle."""

    def is_parked(self, vcpu: "VCpu") -> bool:
        """True if the vCPU is forbidden to run (cap / pollution permit).

        The Kyoto extensions override this: a VM whose pollution quota is
        negative is parked — the paper's "priority OVER, cannot use the
        processor any more".
        """
        return False

    @abstractmethod
    def on_tick_start(self, tick_index: int) -> None:
        """Place vCPUs on cores for this tick."""

    @abstractmethod
    def on_tick_end(self, tick_index: int) -> None:
        """Account the runtime consumed in this tick."""

    @abstractmethod
    def on_accounting(self, tick_index: int) -> None:
        """Refill budgets (every time slice)."""

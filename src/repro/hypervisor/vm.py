"""Virtual machines and their configuration.

A VM is configured like in the paper's IaaS model: a number of vCPUs, a
scheduling weight and optional CPU cap (the coarse-grained resources), and
— the paper's new parameter — an optional **pollution permit**
(``llc_cap``): the LLC pollution level, in misses per millisecond, the VM
booked.  ``llc_cap=None`` means the VM is not Kyoto-managed (plain XCS
behaviour even under KS4Xen, matching Xen's command-line parameter which
is optional per domain).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.workloads.base import Workload

from .vcpu import VCpu


@dataclass
class VmConfig:
    """Static configuration of a VM.

    Attributes:
        name: VM name (e.g. ``"vsen1"``).
        workload: what the VM runs.
        num_vcpus: vCPU count (the paper's experiments mostly use 1).
        weight: XCS proportional-share weight (Xen default 256).
        cap_percent: optional hard CPU cap, in percent of one core
            (Fig 3 sweeps this); None = uncapped.
        llc_cap: booked pollution permit in misses/ms; None = unmanaged.
        memory_node: NUMA node holding the VM's memory.
        pinned_cores: optional explicit core pinning, one entry per vCPU.
    """

    name: str
    workload: Workload
    num_vcpus: int = 1
    weight: int = 256
    cap_percent: Optional[float] = None
    llc_cap: Optional[float] = None
    memory_node: int = 0
    pinned_cores: Optional[List[int]] = None

    def __post_init__(self) -> None:
        if self.num_vcpus <= 0:
            raise ValueError(f"num_vcpus must be positive, got {self.num_vcpus}")
        if self.weight <= 0:
            raise ValueError(f"weight must be positive, got {self.weight}")
        if self.cap_percent is not None and not 0 <= self.cap_percent <= 100 * self.num_vcpus:
            raise ValueError(
                f"cap_percent must be in [0, {100 * self.num_vcpus}], "
                f"got {self.cap_percent}"
            )
        if self.llc_cap is not None and self.llc_cap < 0:
            raise ValueError(f"llc_cap must be >= 0, got {self.llc_cap}")
        if self.pinned_cores is not None and len(self.pinned_cores) != self.num_vcpus:
            raise ValueError(
                f"pinned_cores must list one core per vCPU "
                f"({self.num_vcpus}), got {self.pinned_cores}"
            )


class VirtualMachine:
    """A running VM: config plus its vCPUs and aggregate metrics."""

    def __init__(self, vm_id: int, config: VmConfig) -> None:
        self.vm_id = vm_id
        self.config = config
        self.vcpus: List[VCpu] = []

    @property
    def name(self) -> str:
        return self.config.name

    @property
    def llc_cap(self) -> Optional[float]:
        """The booked pollution permit (None if not Kyoto-managed)."""
        return self.config.llc_cap

    @property
    def finished(self) -> bool:
        """True when every vCPU's (finite) workload completed."""
        return all(vcpu.progress.done for vcpu in self.vcpus)

    @property
    def finish_time_usec(self) -> Optional[int]:
        """Completion time of the last vCPU, or None if still running."""
        times = [vcpu.progress.finished_at_usec for vcpu in self.vcpus]
        if any(t is None for t in times):
            return None
        return max(times)

    # -- aggregate metrics ----------------------------------------------------

    @property
    def instructions_retired(self) -> float:
        return sum(vcpu.instructions_retired for vcpu in self.vcpus)

    @property
    def cycles_run(self) -> int:
        # A plain loop: Kyoto reads this for every managed VM each
        # monitoring period, and sum() over a generator costs ~4x more.
        total = 0
        for vcpu in self.vcpus:
            total += vcpu.cycles_run
        return total

    @property
    def llc_misses(self) -> float:
        return sum(vcpu.llc_misses for vcpu in self.vcpus)

    @property
    def ipc(self) -> float:
        """Instructions per cycle over all time the VM actually ran."""
        cycles = self.cycles_run
        if cycles == 0:
            return 0.0
        return self.instructions_retired / cycles

    def reset_metrics(self) -> None:
        """Zero per-vCPU metrics (start of a measurement window)."""
        for vcpu in self.vcpus:
            vcpu.reset_metrics()

    def __repr__(self) -> str:
        return f"VirtualMachine(id={self.vm_id}, name={self.name!r})"

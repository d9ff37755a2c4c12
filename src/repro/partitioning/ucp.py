"""Utility-based cache partitioning (UCP, Qureshi & Patt, MICRO 2006).

The hardware-partitioning baseline of the paper's related work: a runtime
mechanism monitors each application's miss curve and reallocates cache
ways to whoever gains the most hits per extra way (greedy marginal
utility).  Real UCP needs dedicated monitor circuits; here the utility
curves come from the calibrated behaviour model plus the measured access
rates — the same information the circuits estimate.

``UcpController`` repartitions every ``period_ticks`` by replacing the
socket's domain allocations (it drives a
:class:`~repro.partitioning.static.PartitionedLlcDomain` whose slices it
recomputes), preserving each owner's current occupancy up to the new
slice size.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

from repro.cachesim.perfmodel import CacheBehavior, hit_probability

from .static import PartitionedLlcDomain


def marginal_utility_allocation(
    total_lines: float,
    behaviors: Mapping[int, CacheBehavior],
    access_rates: Mapping[int, float],
    granularity: int = 32,
) -> Dict[int, float]:
    """Greedy lookahead allocation of ``total_lines`` among owners.

    Repeatedly hands the next ``total_lines / granularity`` chunk to the
    owner whose expected hit gain (hit-probability increase times its LLC
    access rate) is largest.  Owners with zero access rate get nothing.
    """
    if total_lines <= 0:
        raise ValueError(f"total_lines must be positive, got {total_lines}")
    if granularity <= 0:
        raise ValueError(f"granularity must be positive, got {granularity}")
    chunk = total_lines / granularity
    allocation: Dict[int, float] = {owner: 0.0 for owner in behaviors}
    for _ in range(granularity):
        best_owner = None
        best_gain = 0.0
        for owner, behavior in behaviors.items():
            rate = access_rates.get(owner, 0.0)
            if rate <= 0:
                continue
            current = allocation[owner]
            if current >= behavior.footprint_cap_lines:
                continue  # more cache is useless beyond the working set
            gain = (
                hit_probability(behavior, current + chunk)
                - hit_probability(behavior, current)
            ) * rate
            if gain > best_gain:
                best_gain = gain
                best_owner = owner
        if best_owner is None:
            break
        allocation[best_owner] += chunk
    return {owner: lines for owner, lines in allocation.items() if lines > 0}


class UcpController:
    """Periodic utility-based repartitioning of a socket's LLC."""

    def __init__(
        self,
        system,
        socket_id: int = 0,
        period_ticks: int = 30,
        granularity: int = 32,
        min_lines: float = 512.0,
    ) -> None:
        if period_ticks <= 0:
            raise ValueError(f"period_ticks must be positive, got {period_ticks}")
        self.system = system
        self.socket_id = socket_id
        self.period_ticks = period_ticks
        self.granularity = granularity
        self.min_lines = min_lines
        self.repartitions = 0
        self.last_allocation: Dict[int, float] = {}
        system.add_tick_observer(self._on_tick)

    def _socket_vcpus(self) -> List:
        cores = set(self.system.machine.spec.cores_of_socket(self.socket_id))
        return [
            vcpu
            for vcpu in self.system.vcpus
            if (vcpu.pinned_core in cores)
            or (vcpu.current_core in cores)
        ]

    def _on_tick(self, system, tick_index: int) -> None:
        if (tick_index + 1) % self.period_ticks != 0:
            return
        self.repartition()

    def repartition(self) -> Dict[int, float]:
        """Recompute and apply the allocation; returns it."""
        vcpus = self._socket_vcpus()
        if not vcpus:
            return {}
        behaviors = {vcpu.gid: vcpu.workload.behavior for vcpu in vcpus}
        freq = self.system.freq_khz
        rates: Dict[int, float] = {}
        for vcpu in vcpus:
            cycles = self.system.last_tick_cycles.get(vcpu.gid, 0)
            if cycles > 0:
                ms = cycles / freq
                instructions = self.system.last_tick_instructions.get(
                    vcpu.gid, 0.0
                )
                # LLC accesses per ms over the last tick — the quantity
                # UCP's monitor circuit estimates per way.
                rates[vcpu.gid] = (
                    instructions * behaviors[vcpu.gid].lapki / 1000.0
                ) / ms
            else:
                rates[vcpu.gid] = 0.0
        domain = self.system.llc_domains[self.socket_id]
        total = domain.total_lines
        allocation = marginal_utility_allocation(
            total, behaviors, rates, self.granularity
        )
        # Guarantee a minimum slice to every running owner so nobody is
        # locked out entirely.
        for vcpu in vcpus:
            if rates[vcpu.gid] > 0:
                allocation.setdefault(vcpu.gid, self.min_lines)
        overshoot = sum(allocation.values()) - total
        if overshoot > 0:
            scale = total / (total + overshoot)
            allocation = {o: v * scale for o, v in allocation.items()}
        new_domain = PartitionedLlcDomain(total, allocation)
        # Carry occupancy into the new slices (clipped to slice size).
        old_snapshot = domain.snapshot()
        for owner, occ in old_snapshot.items():
            slice_lines = allocation.get(owner)
            if slice_lines is None:
                continue
            carried = min(occ, slice_lines)
            if carried > 0:
                new_domain.insert(owner, carried)
        self.system.llc_domains[self.socket_id] = new_domain
        self.system.machine.sockets[self.socket_id].llc_domain = new_domain
        self.last_allocation = allocation
        self.repartitions += 1
        return allocation

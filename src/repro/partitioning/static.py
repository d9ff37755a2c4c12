"""Static software cache partitioning (page coloring).

The second related-work category the paper positions against ([22, 23],
Zhang et al. EuroSys'09): reserve a slice of the LLC for each VM by
colouring its physical pages so its lines can only map into its slice.
Contention disappears by construction — at the price of rigidity (a VM
cannot use cache it didn't reserve, resizing means recolouring memory)
and of not being pay-per-use.

The model: a :class:`PartitionedLlcDomain` splits the occupancy domain
into per-owner private partitions plus one shared partition for
unallocated owners.  Each partition runs the same mean-field dynamics as
the global domain, but an owner's insertions can only evict within its
own partition — exactly the page-coloring guarantee.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional

from repro.cachesim.occupancy import LlcOccupancyDomain


class PartitionedLlcDomain:
    """A colour-partitioned LLC: private slices + one shared remainder.

    Speaks the occupancy-domain protocol the machine simulation uses on
    :class:`~repro.cachesim.occupancy.LlcOccupancyDomain`, so it can be
    dropped into a socket with :func:`apply_page_coloring`.  The batch
    tick engine reads ``_occupancy`` and ``_state_version`` directly:

    * ``_occupancy`` merges every partition's occupancy map (partitions
      are owner-disjoint).  It is one dict object for the domain's whole
      lifetime, refreshed in place after every mutation, in
      :meth:`snapshot` order: private partitions in allocation order,
      then the shared one.
    * ``_state_version`` is the sum of the partitions' versions, so it
      never decreases and advances whenever any partition may have
      changed.
    """

    def __init__(
        self,
        total_lines: float,
        allocations: Mapping[int, float],
    ) -> None:
        if total_lines <= 0:
            raise ValueError(f"total_lines must be positive, got {total_lines}")
        reserved = sum(allocations.values())
        if reserved > total_lines:
            raise ValueError(
                f"allocations ({reserved}) exceed the cache ({total_lines})"
            )
        if any(lines <= 0 for lines in allocations.values()):
            raise ValueError(f"allocations must be positive: {allocations}")
        self.total_lines = float(total_lines)
        self.allocations: Dict[int, float] = dict(allocations)
        self._private: Dict[int, LlcOccupancyDomain] = {
            owner: LlcOccupancyDomain(lines)
            for owner, lines in self.allocations.items()
        }
        shared_lines = total_lines - reserved
        self._shared: Optional[LlcOccupancyDomain] = (
            LlcOccupancyDomain(shared_lines) if shared_lines >= 1 else None
        )
        self._partitions: List[LlcOccupancyDomain] = list(
            self._private.values()
        )
        if self._shared is not None:
            self._partitions.append(self._shared)
        self._occupancy: Dict[int, float] = {}
        self._state_version = 0

    def _sync(self) -> None:
        """Refresh the merged map and version after a mutation."""
        version = sum(p._state_version for p in self._partitions)
        if version == self._state_version:
            return
        self._state_version = version
        merged = self._occupancy
        merged.clear()
        for partition in self._partitions:
            merged.update(partition._occupancy)

    def _partition_of(self, owner: int) -> Optional[LlcOccupancyDomain]:
        private = self._private.get(owner)
        return private if private is not None else self._shared

    # -- queries (LlcOccupancyDomain interface) --------------------------------

    def occupancy_of(self, owner: int) -> float:
        return self._occupancy.get(owner, 0.0)

    @property
    def used_lines(self) -> float:
        # Partition-wise, not a sum of the merged map: keeps the float
        # addition order of the per-partition caches.
        return sum(p.used_lines for p in self._partitions)

    @property
    def free_lines(self) -> float:
        return max(0.0, self.total_lines - self.used_lines)

    def owners(self) -> Iterable[int]:
        return [o for o, occ in self._occupancy.items() if occ > 0.0]

    def snapshot(self) -> Dict[int, float]:
        return dict(self._occupancy)

    # -- mutations ---------------------------------------------------------------

    def _no_shared_partition(self, owners: Iterable[int]) -> ValueError:
        return ValueError(
            "owners without a colour allocation need a shared "
            f"partition, but the colours consumed the whole cache: "
            f"{sorted(owners)}"
        )

    def insert(self, owner: int, n_lines: float) -> None:
        """Insert ``n_lines`` lines for ``owner`` into its own partition."""
        partition = self._partition_of(owner)
        if partition is None:
            raise self._no_shared_partition([owner])
        partition.insert(owner, n_lines)
        self._sync()

    def relax(
        self,
        pressures: Mapping[int, float],
        footprint_caps: Mapping[int, float],
        active: Optional[Iterable[int]] = None,
    ) -> None:
        """Each owner's insertions act only within its own partition."""
        try:
            active_set = set(pressures) if active is None else set(active)
            shared_pressures: Dict[int, float] = {}
            shared_caps: Dict[int, float] = {}
            for owner, pressure in pressures.items():
                if owner in self._private:
                    self._private[owner].relax(
                        {owner: pressure},
                        {owner: footprint_caps.get(owner, self.total_lines)},
                        active=[owner],
                    )
                else:
                    shared_pressures[owner] = pressure
                    shared_caps[owner] = footprint_caps.get(
                        owner, self.total_lines
                    )
            if shared_pressures:
                if self._shared is None:
                    raise self._no_shared_partition(shared_pressures)
                shared_active = [o for o in active_set if o not in self._private]
                self._shared.relax(
                    shared_pressures, shared_caps, active=shared_active
                )
        finally:
            # A raise can follow private relaxations that already moved.
            self._sync()

    def flush_owner(self, owner: int) -> float:
        partition = self._partition_of(owner)
        if partition is None:
            return 0.0
        flushed = partition.flush_owner(owner)
        self._sync()
        return flushed

    def reset(self) -> None:
        for partition in self._partitions:
            partition.reset()
        self._sync()


def apply_page_coloring(system, allocations_by_vm: Mapping) -> None:
    """Replace every socket's LLC domain with a colour-partitioned one.

    ``allocations_by_vm`` maps :class:`~repro.hypervisor.vm.VirtualMachine`
    objects to line counts; all vCPUs of a VM share its partition budget
    (split evenly).  VMs not listed share the remainder.
    """
    per_owner: Dict[int, float] = {}
    for vm, lines in allocations_by_vm.items():
        share = lines / len(vm.vcpus)
        for vcpu in vm.vcpus:
            per_owner[vcpu.gid] = share
    for socket_id, socket in enumerate(system.machine.sockets):
        old = system.llc_domains[socket_id]
        domain = PartitionedLlcDomain(old.total_lines, per_owner)
        system.llc_domains[socket_id] = domain
        socket.llc_domain = domain

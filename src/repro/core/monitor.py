"""Kyoto monitoring: measuring each VM's pollution level.

Section 3.3 of the paper: collecting LLC statistics is easy; *attributing*
them to one VM while several VMs share the LLC is the hard part ("a VM
should not be punished for the pollution of another VM").  Three monitors
are provided:

:class:`DirectPmcMonitor`
    Reads the perfctr-virtualised per-vCPU counters as-is.  Cheap and
    online, but the measured rate is the *contended* rate: reload misses
    caused by co-runners inflate it.

:class:`SocketDedicationSampler`
    The paper's first solution — dedicate the socket to the sampled vCPU
    by migrating everyone else to the second socket for the sampling
    window, measure, migrate back.  Measures the intrinsic rate but
    perturbs the migrated vCPUs (Fig 9) unless the isolation-skipping
    heuristics of Section 4.5 apply (:class:`IsolationPolicy`).

:class:`McSimReplayMonitor`
    The paper's second solution — replay the VM's instruction stream in a
    micro-architectural simulator on a dedicated machine and read the PMCs
    the simulator returns (see :mod:`repro.mcsim`).  No perturbation.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.pmc.counters import EVENT_INDEX, PmcEvent
from repro.telemetry import current_recorder

from .equation import llc_cap_act

if TYPE_CHECKING:  # pragma: no cover
    from repro.hypervisor.system import VirtualizedSystem
    from repro.hypervisor.vm import VirtualMachine


#: Positions in a perfctr ``sample_row`` of the events the monitors read.
_LLC_MISSES = EVENT_INDEX[PmcEvent.LLC_MISSES]
_CYCLES = EVENT_INDEX[PmcEvent.UNHALTED_CORE_CYCLES]
_INSTRUCTIONS = EVENT_INDEX[PmcEvent.INSTRUCTIONS_RETIRED]


class MonitorError(Exception):
    """A monitor failed to produce a sample this period.

    The contract of the monitoring path: monitors signal failure by
    raising ``MonitorError`` (or a subclass), and the enforcement engine
    treats any such failure as a *missing* sample — it never crashes and
    never debits a garbage reading (see
    :meth:`repro.core.engine.KyotoEngine.on_tick_end` and
    :class:`repro.core.resilient.ResilientMonitor`).
    """


class PollutionMonitor(ABC):
    """Produces a VM's measured llc_cap_act each monitoring period."""

    name = "abstract"

    def __init__(self, system: "VirtualizedSystem") -> None:
        self.system = system

    @abstractmethod
    def sample(self, vm: "VirtualMachine") -> float:
        """Measured pollution (misses/ms) since the previous sample."""


class DirectPmcMonitor(PollutionMonitor):
    """Per-vCPU virtualised PMCs, read online via perfctr.

    The paper assumes vCPUs of the same VM behave alike and considers only
    one vCPU; we do the same and scale by the vCPU count.  A configurable
    per-sample CPU cost models the (tiny) perfctr gathering overhead that
    Fig 12 shows to be negligible.
    """

    name = "direct-pmc"

    def __init__(
        self,
        system: "VirtualizedSystem",
        sampling_cost_cycles: int = 2_000,
    ) -> None:
        super().__init__(system)
        if sampling_cost_cycles < 0:
            raise ValueError(
                f"sampling cost cannot be negative: {sampling_cost_cycles}"
            )
        self.sampling_cost_cycles = sampling_cost_cycles

    def sample(self, vm: "VirtualMachine") -> float:
        lead = vm.vcpus[0]
        row = self.system.perfctr.sample_row(lead.gid)
        self._charge_cost(lead)
        rate = llc_cap_act(
            row[_LLC_MISSES], row[_CYCLES], self.system.freq_khz_of_vcpu(lead)
        )
        return rate * len(vm.vcpus)

    def _charge_cost(self, vcpu) -> None:
        if self.sampling_cost_cycles == 0 or vcpu.current_core is None:
            return
        # The hypervisor burns the gathering cost on the vCPU's core.
        pending = self.system._pending_penalty_cycles
        pending[vcpu.current_core] = (
            pending.get(vcpu.current_core, 0) + self.sampling_cost_cycles
        )


class IsolationPolicy:
    """Section 4.5's "when can we skip socket dedication" heuristics.

    Isolation of a vCPU is unnecessary when:

    * the vCPU itself generates very few LLC misses (it is neither a
      disturber nor sensitive), or
    * every co-runner sharing its LLC generates very few LLC misses (the
      contended measurement is close to the intrinsic one anyway).
    """

    def __init__(
        self,
        system: "VirtualizedSystem",
        low_pollution_threshold: float = 10_000.0,
    ) -> None:
        if low_pollution_threshold < 0:
            raise ValueError(
                f"threshold cannot be negative: {low_pollution_threshold}"
            )
        self.system = system
        self.low_pollution_threshold = low_pollution_threshold

    def _recent_rate(self, vcpu) -> float:
        """Last-tick truth miss rate of a vCPU (misses/ms)."""
        misses = self.system.last_tick_misses.get(vcpu.gid, 0.0)
        cycles = self.system.last_tick_cycles.get(vcpu.gid, 0)
        if cycles == 0:
            return 0.0
        return misses / (cycles / self.system.freq_khz_of_vcpu(vcpu))

    def should_isolate(self, vm: "VirtualMachine") -> bool:
        """True if measuring ``vm`` requires dedicating the socket."""
        lead = vm.vcpus[0]
        if self._recent_rate(lead) < self.low_pollution_threshold:
            return False
        core_id = (
            lead.current_core if lead.current_core is not None else lead.pinned_core
        )
        if core_id is None:
            return True
        socket = self.system.machine.socket_of(core_id)
        others = [
            v
            for v in self.system.vcpus
            if v is not lead and self._on_socket(v, socket.socket_id)
        ]
        if all(
            self._recent_rate(v) < self.low_pollution_threshold for v in others
        ):
            return False
        return True

    def _on_socket(self, vcpu, socket_id: int) -> bool:
        core_id = (
            vcpu.current_core if vcpu.current_core is not None else vcpu.pinned_core
        )
        if core_id is None:
            return False
        return self.system.machine.core(core_id).socket_id == socket_id


class SocketDedicationSampler:
    """Measure a VM's intrinsic pollution by dedicating its socket.

    Requires a multi-socket machine.  During the sampling window, every
    other vCPU of the target socket is migrated to ``spill_socket``; the
    sampled vCPU then runs undisturbed and its PMC readings reflect its
    intrinsic pollution.  Afterwards everyone migrates back.  The
    perturbation this causes to the migrated vCPUs is exactly the Fig 9
    overhead.
    """

    name = "socket-dedication"

    def __init__(
        self,
        system: "VirtualizedSystem",
        spill_socket: int = 1,
        isolation_policy: Optional[IsolationPolicy] = None,
    ) -> None:
        if system.machine.spec.num_sockets < 2:
            raise ValueError(
                "socket dedication needs at least two sockets; "
                f"machine has {system.machine.spec.num_sockets}"
            )
        self.system = system
        self.spill_socket = spill_socket
        self.isolation_policy = isolation_policy
        self.migrations_performed = 0
        #: vCPUs left stranded on the spill socket because the restore
        #: migration itself failed (only possible under fault injection).
        self.restore_failures = 0

    def sample(self, vm: "VirtualMachine", sample_ticks: int = 3) -> float:
        """Run a dedicated-socket sampling window and return llc_cap_act.

        The world is restored even when the window fails part-way: any
        vCPU migrated off the home socket is migrated back before the
        failure propagates.  A migration failure (injected or real)
        surfaces as :class:`MonitorError` so a failover chain can move
        on to the next strategy.
        """
        if sample_ticks <= 0:
            raise ValueError(f"sample_ticks must be positive, got {sample_ticks}")
        from repro.hypervisor.system import HypervisorError

        lead = vm.vcpus[0]
        if self.isolation_policy is not None and not self.isolation_policy.should_isolate(vm):
            return self._contended_sample(vm, sample_ticks)

        home_core = (
            lead.current_core if lead.current_core is not None else lead.pinned_core
        )
        if home_core is None:
            home_core = 0
        home_socket = self.system.machine.core(home_core).socket_id
        spill_cores = list(
            self.system.machine.spec.cores_of_socket(self.spill_socket)
        )
        # Migrate every other vCPU of the home socket away.
        moved: List[tuple] = []
        spill_index = 0
        try:
            for vcpu in self.system.vcpus:
                if vcpu is lead:
                    continue
                core_id = (
                    vcpu.current_core
                    if vcpu.current_core is not None
                    else vcpu.pinned_core
                )
                if core_id is None:
                    continue
                if self.system.machine.core(core_id).socket_id != home_socket:
                    continue
                target = spill_cores[spill_index % len(spill_cores)]
                spill_index += 1
                self.system.migrate_vcpu(vcpu, target)
                self.migrations_performed += 1
                moved.append((vcpu, core_id))

            measured = self._contended_sample(vm, sample_ticks)
        except HypervisorError as exc:
            raise MonitorError(
                f"socket dedication failed mid-window: {exc}"
            ) from exc
        finally:
            self._restore(moved)
        return measured

    def _restore(self, moved: List[tuple]) -> None:
        """Best-effort return of every migrated vCPU to its home core."""
        from repro.hypervisor.system import HypervisorError

        for vcpu, original_core in moved:
            try:
                self.system.migrate_vcpu(vcpu, original_core)
                self.migrations_performed += 1
            except HypervisorError:
                # Leave the vCPU stranded on the spill socket rather than
                # abandon the remaining restores; visible in telemetry.
                self.restore_failures += 1
                current_recorder().inc("monitor.restore_failures")

    def _contended_sample(self, vm: "VirtualMachine", sample_ticks: int) -> float:
        lead = vm.vcpus[0]
        self.system.perfctr.sample_row(lead.gid)  # reset the sample baseline
        self.system.run_ticks(sample_ticks)
        row = self.system.perfctr.sample_row(lead.gid)
        rate = llc_cap_act(
            row[_LLC_MISSES], row[_CYCLES], self.system.freq_khz_of_vcpu(lead)
        )
        return rate * len(vm.vcpus)


class SocketDedicationMonitor(PollutionMonitor):
    """Periodic-monitor adapter over :class:`SocketDedicationSampler`.

    Lets socket dedication participate in a failover chain
    (:class:`repro.core.resilient.ResilientMonitor`): each ``sample``
    runs one dedicated-socket window of ``sample_ticks`` *real* ticks —
    simulated time advances, exactly the Fig 9 perturbation — and any
    hypervisor failure surfaces as :class:`MonitorError`.  The
    enforcement engine's reentrancy guard keeps the nested ticks from
    re-triggering monitoring inside the window.
    """

    name = "socket-dedication-window"

    def __init__(
        self,
        system: "VirtualizedSystem",
        sampler: Optional[SocketDedicationSampler] = None,
        sample_ticks: int = 1,
    ) -> None:
        super().__init__(system)
        if sample_ticks <= 0:
            raise ValueError(f"sample_ticks must be positive, got {sample_ticks}")
        self.sampler = (
            sampler if sampler is not None else SocketDedicationSampler(system)
        )
        self.sample_ticks = sample_ticks

    def sample(self, vm: "VirtualMachine") -> float:
        from repro.hypervisor.system import HypervisorError

        try:
            return self.sampler.sample(vm, self.sample_ticks)
        except HypervisorError as exc:
            raise MonitorError(f"socket dedication window failed: {exc}") from exc


class McSimReplayMonitor(PollutionMonitor):
    """Monitor using the McSimA+-style replay service.

    Asks the replay service (running on a "dedicated machine", so zero
    perturbation of the production host) for the VM's intrinsic LLC miss
    *ratio*, then converts it to misses/ms using the VM's observed
    execution speed from the cheap PMC events (instructions and cycles are
    attributable without socket dedication; only the shared-LLC miss
    counter is contaminated by contention).
    """

    name = "mcsim-replay"

    def __init__(self, system: "VirtualizedSystem", replay_service) -> None:
        super().__init__(system)
        self.replay_service = replay_service

    def sample(self, vm: "VirtualMachine") -> float:
        lead = vm.vcpus[0]
        # Ask the replay service *before* consuming the perfctr sampling
        # window: a failing service then leaves the window intact for
        # whatever monitor a failover chain tries next.
        report = self.replay_service.replay_vm(vm)
        row = self.system.perfctr.sample_row(lead.gid)
        cycles = row[_CYCLES]
        instructions = row[_INSTRUCTIONS]
        if cycles == 0:
            return 0.0
        inst_per_ms = instructions / (cycles / self.system.freq_khz_of_vcpu(lead))
        misses_per_ms = inst_per_ms * report.misses_per_kinst / 1000.0
        return misses_per_ms * len(vm.vcpus)

"""The virtualized system: hypervisor + machine simulation.

``VirtualizedSystem`` ties together every substrate:

* the :class:`~repro.hardware.topology.Machine` (cores, sockets),
* one shared-LLC :class:`~repro.cachesim.occupancy.LlcOccupancyDomain`
  per socket,
* per-core :class:`~repro.pmc.counters.CoreCounters` virtualised per-vCPU
  by a :class:`~repro.pmc.perfctr.PerfctrVirtualizer`,
* a pluggable scheduler (XCS, KS4Xen, CFS, KS4Linux, Pisces, ...),
* the VMs and their workloads.

Time advances in scheduler ticks (Xen's 10 ms by default).  Each tick:

1. the scheduler places vCPUs on cores (context switches virtualise PMCs
   and charge a switch cost),
2. every running vCPU executes the tick in sub-steps: the perf model
   converts cycles + current LLC occupancy into instructions and misses,
   misses are inserted into the socket's shared occupancy domain (evicting
   competitors proportionally — this is the contention), PMCs advance,
3. the scheduler burns credits; every ``ticks_per_slice`` ticks the
   accounting period (credit + pollution-quota refill) runs.

Experiments attach per-tick observers to record timelines (Figs 2, 5).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.cachesim.occupancy import LlcOccupancyDomain
from repro.cachesim.perfmodel import CacheBehavior, execute_step
from repro.hardware.specs import MachineSpec, paper_machine
from repro.hardware.topology import Core, Machine
from repro.pmc.counters import CoreCounters, HardwareCounter, PmcEvent
from repro.pmc.perfctr import PerfctrVirtualizer
from repro.simulation.clock import (
    XEN_TICK_USEC,
    usec_to_cycles,
)
from repro.simulation.engine import Engine
from repro.simulation.rng import RngRegistry
from repro.telemetry import MetricsRecorder, current_recorder

from .vcpu import VCpu
from .vm import VirtualMachine, VmConfig

#: Observers get (system, tick_index) after each tick completes.
TickObserver = Callable[["VirtualizedSystem", int], None]


class HypervisorError(Exception):
    """Raised on invalid hypervisor operations (bad pinning, etc.)."""


class VirtualizedSystem:
    """A simulated physical machine running VMs under a scheduler."""

    def __init__(
        self,
        scheduler,
        machine_spec: Optional[MachineSpec] = None,
        *,
        tick_usec: int = XEN_TICK_USEC,
        ticks_per_slice: int = 3,
        substeps_per_tick: int = 10,
        context_switch_cost_cycles: int = 20_000,
        perf_jitter_fraction: float = 0.0,
        seed: int = 0,
        recorder: Optional[MetricsRecorder] = None,
        tick_engine: str = "batch",
    ) -> None:
        if tick_usec <= 0:
            raise ValueError(f"tick_usec must be positive, got {tick_usec}")
        if ticks_per_slice <= 0:
            raise ValueError(
                f"ticks_per_slice must be positive, got {ticks_per_slice}"
            )
        if substeps_per_tick <= 0:
            raise ValueError(
                f"substeps_per_tick must be positive, got {substeps_per_tick}"
            )
        if not 0.0 <= perf_jitter_fraction < 1.0:
            raise ValueError(
                f"perf_jitter_fraction must be in [0,1), got "
                f"{perf_jitter_fraction}"
            )
        self.spec = machine_spec if machine_spec is not None else paper_machine()
        self.machine = Machine(self.spec)
        self.tick_usec = tick_usec
        self.ticks_per_slice = ticks_per_slice
        self.substeps_per_tick = substeps_per_tick
        self.context_switch_cost_cycles = context_switch_cost_cycles
        #: Optional multiplicative noise on per-substep instruction
        #: throughput — models SMIs, frequency wiggle and measurement
        #: noise.  0.0 (the default) keeps runs bit-exact deterministic;
        #: with jitter, determinism is still guaranteed per seed.
        self.perf_jitter_fraction = perf_jitter_fraction
        self.rng = RngRegistry(seed)
        self._jitter_stream = self.rng.stream("perf-jitter")
        #: Telemetry hook (docs/telemetry.md).  Strictly an observer —
        #: nothing reads it back — so recording never changes results.
        self.recorder = recorder if recorder is not None else current_recorder()

        # Shared-LLC occupancy domain per socket.
        self.llc_domains: List[LlcOccupancyDomain] = []
        for socket in self.machine.sockets:
            domain = LlcOccupancyDomain(socket.spec.llc.num_lines)
            socket.llc_domain = domain
            self.llc_domains.append(domain)

        # PMC hardware + perfctr virtualisation.
        self.core_counters: Dict[int, CoreCounters] = {
            core.core_id: CoreCounters(core.core_id) for core in self.machine.cores
        }
        self.perfctr = PerfctrVirtualizer(self.core_counters)
        # Direct references to the four counters the execution loop feeds
        # (counter objects are mutated in place, never replaced, so the
        # references stay live across context switches).  Skips an
        # enum-keyed dict lookup per event per sub-step.
        self._substep_pmcs: Dict[int, Tuple[HardwareCounter, ...]] = {
            core_id: (
                bank.counter(PmcEvent.UNHALTED_CORE_CYCLES),
                bank.counter(PmcEvent.INSTRUCTIONS_RETIRED),
                bank.counter(PmcEvent.LLC_MISSES),
                bank.counter(PmcEvent.LLC_REFERENCES),
            )
            for core_id, bank in self.core_counters.items()
        }

        self.engine = Engine(recorder=self.recorder)
        self.vms: List[VirtualMachine] = []
        self.vcpus: List[VCpu] = []
        # Monotonic id counters: ids are never reused, so a retired VM's
        # vm_id/gids stay dead forever (stale references cannot alias a
        # later admission).  For a static fleet these produce exactly the
        # ids the old len()-based scheme did.
        self._next_vm_id = 0
        self._next_gid = 0
        self._vm_by_name: Dict[str, VirtualMachine] = {}
        self.tick_index = 0
        self._tick_observers: List[TickObserver] = []
        #: Optional pre-migration hook (fault injection): called with
        #: ``(vcpu, new_core_id)`` before every migration and may raise
        #: :class:`HypervisorError` to make the migration fail.  ``None``
        #: (the default) costs one attribute check per migration.
        self.migration_interceptor: Optional[Callable[[VCpu, int], None]] = None
        self._pending_penalty_cycles: Dict[int, int] = {}
        # vCPUs currently in think time (blocked_until_usec set).  Only
        # the sub-step boundary path ever blocks a vCPU, and only
        # _wake_sleepers unblocks, so this counter lets the per-tick wake
        # scan be skipped entirely while nothing is asleep (the common
        # case for the batch experiments).
        self._sleeping_count = 0
        # Per-core execution budget (cycles) of one sub-step.  tick_usec,
        # substeps_per_tick and core frequencies are all fixed at
        # construction, so the rounding below is hoisted out of the inner
        # execution loop; the expression matches what _execute_substep
        # used to compute per call, digit for digit.
        substep_usec = self.tick_usec / self.substeps_per_tick
        self._substep_budget_cycles: Dict[int, int] = {
            core.core_id: int(
                round(substep_usec * self.freq_khz_of_core(core.core_id) / 1000)
            )
            for core in self.machine.cores
        }
        #: Per-vCPU cycles actually executed during the last tick.
        self.last_tick_cycles: Dict[int, int] = {}
        #: Per-vCPU LLC misses produced during the last tick.
        self.last_tick_misses: Dict[int, float] = {}
        #: Per-vCPU instructions retired during the last tick.
        self.last_tick_instructions: Dict[int, float] = {}

        self.scheduler = scheduler
        scheduler.attach(self)

        #: Which inner tick-loop implementation executes sub-steps.
        #: ``batch`` (default) is the struct-of-arrays engine in
        #: :mod:`repro.hypervisor.batch`; ``scalar`` is the reference
        #: per-core loop the equivalence property tests pin it against,
        #: bit for bit.
        if tick_engine not in ("batch", "scalar"):
            raise ValueError(
                f"unknown tick_engine {tick_engine!r}; expected 'batch' or "
                f"'scalar'"
            )
        self.tick_engine = tick_engine
        # The batch engine's per-core slots are built lazily on the
        # first tick: systems that are constructed but never run (spec
        # materialization, validation passes) pay nothing for it.
        self._batch_engine = None
        self._tick_executor: Optional[Callable[[], None]] = (
            self._execute_tick if tick_engine == "scalar" else None
        )

    # -- frequency helpers ----------------------------------------------------

    def freq_khz_of_core(self, core_id: int) -> int:
        return self.machine.socket_of(core_id).spec.freq_khz

    @property
    def freq_khz(self) -> int:
        """Frequency of socket 0 (all modelled machines are homogeneous)."""
        return self.machine.sockets[0].spec.freq_khz

    def cycles_per_tick(self, core_id: int = 0) -> int:
        return usec_to_cycles(self.tick_usec, self.freq_khz_of_core(core_id))

    def socket_id_of_vcpu(self, vcpu: VCpu) -> int:
        """Socket a vCPU's execution state lives on.

        The current core wins, then the pinned core; a vCPU that has
        never been placed anywhere falls back to its VM's memory node —
        that is the socket whose LLC it will populate once scheduled,
        so per-socket lookups (occupancy, frequency) stay coherent on
        multi-socket machines.
        """
        core_id = (
            vcpu.current_core
            if vcpu.current_core is not None
            else vcpu.pinned_core
        )
        if core_id is None:
            return vcpu.vm.config.memory_node
        return self.machine.core(core_id).socket_id

    def freq_khz_of_vcpu(self, vcpu: VCpu) -> int:
        """Frequency of the socket the vCPU runs (or would run) on."""
        return self.machine.sockets[self.socket_id_of_vcpu(vcpu)].spec.freq_khz

    # -- VM lifecycle -----------------------------------------------------------

    def create_vm(self, config: VmConfig) -> VirtualMachine:
        """Instantiate a VM, its vCPUs, and register with the scheduler."""
        if config.name in self._vm_by_name:
            raise HypervisorError(
                f"a VM named {config.name!r} already exists; VM names must "
                f"be unique while the VM is live"
            )
        vm = VirtualMachine(vm_id=self._next_vm_id, config=config)
        self._next_vm_id += 1
        for index in range(config.num_vcpus):
            pinned = (
                config.pinned_cores[index] if config.pinned_cores is not None else None
            )
            if pinned is not None:
                self.machine.core(pinned)  # validates the id
            vcpu = VCpu(
                gid=self._next_gid,
                vm=vm,
                index=index,
                workload=config.workload,
                pinned_core=pinned,
            )
            self._next_gid += 1
            vm.vcpus.append(vcpu)
            self.vcpus.append(vcpu)
            self.scheduler.register_vcpu(vcpu)
        self.vms.append(vm)
        self._vm_by_name[vm.name] = vm
        if self._batch_engine is not None:
            self._batch_engine.invalidate_fleet()
        return vm

    def admit_vm(self, config: VmConfig) -> VirtualMachine:
        """Admit a VM into a (possibly already running) system.

        Semantically :meth:`create_vm`; the separate name marks the
        service-mode entry point.  Admission happens *between* ticks —
        the new VM is schedulable from the next tick onward.
        """
        vm = self.create_vm(config)
        self.recorder.inc("service.vms_admitted")
        return vm

    def retire_vm(self, vm: VirtualMachine) -> None:
        """Remove a VM from the system mid-run.

        Runs between ticks.  Ordering matters:

        1. the scheduler's VM-retire hook runs first, while the vCPUs are
           still registered and measurable — Kyoto settlement samples the
           monitor, which needs live perfctr accounts;
        2. each vCPU is descheduled (its pending context-switch penalty
           dies with it), its LLC occupancy is flushed, its perfctr
           account retired, and the scheduler unregisters it;
        3. the VM leaves the fleet, and the batch engine's core slots are
           invalidated so no mirror retains a stale reference.
        """
        if self._vm_by_name.get(vm.name) is not vm:
            raise HypervisorError(
                f"VM {vm.name!r} (vm_id={vm.vm_id}) is not live in this system"
            )
        self.scheduler.on_vm_retiring(vm)
        for vcpu in vm.vcpus:
            if vcpu.current_core is not None:
                core = self.machine.core(vcpu.current_core)
                self.context_switch(core, None)
                self._pending_penalty_cycles.pop(core.core_id, None)
            if vcpu.blocked_until_usec is not None:
                vcpu.blocked_until_usec = None
                self._sleeping_count -= 1
            # A retired vCPU must never look runnable again, even to code
            # holding a stale reference.
            vcpu.paused = True
            for domain in self.llc_domains:
                domain.flush_owner(vcpu.gid)
            self.perfctr.retire_account(vcpu.gid)
            self.scheduler.unregister_vcpu(vcpu)
            self.last_tick_cycles.pop(vcpu.gid, None)
            self.last_tick_misses.pop(vcpu.gid, None)
            self.last_tick_instructions.pop(vcpu.gid, None)
        retired_gids = {vcpu.gid for vcpu in vm.vcpus}
        self.vcpus = [v for v in self.vcpus if v.gid not in retired_gids]
        self.vms.remove(vm)
        del self._vm_by_name[vm.name]
        if self._batch_engine is not None:
            self._batch_engine.invalidate_fleet()
        self.recorder.inc("service.vms_retired")
        self.recorder.compact_retired_series(f"kyoto.quota.{vm.name}")

    def vm_by_name(self, name: str) -> VirtualMachine:
        try:
            return self._vm_by_name[name]
        except KeyError:
            raise HypervisorError(f"no VM named {name!r}") from None

    # -- placement / context switching -----------------------------------------

    def context_switch(self, core: Core, vcpu: Optional[VCpu]) -> None:
        """Place ``vcpu`` (or idle) on ``core``, virtualising PMCs."""
        outgoing = core.running
        if outgoing is vcpu:
            return
        if outgoing is not None:
            self.perfctr.switch_out_row(outgoing.gid)
            outgoing.current_core = None
            core.running = None
        if vcpu is not None:
            if vcpu.current_core is not None:
                raise HypervisorError(
                    f"{vcpu.name} is already running on core {vcpu.current_core}"
                )
            if vcpu.pinned_core is not None and vcpu.pinned_core != core.core_id:
                raise HypervisorError(
                    f"{vcpu.name} is pinned to core {vcpu.pinned_core}, "
                    f"cannot run on {core.core_id}"
                )
            core.running = vcpu
            vcpu.current_core = core.core_id
            self.perfctr.context_switch_in(vcpu.gid, core.core_id)
            self._pending_penalty_cycles[core.core_id] = (
                self._pending_penalty_cycles.get(core.core_id, 0)
                + self.context_switch_cost_cycles
            )
            self.recorder.inc("sys.context_switches")

    def migrate_vcpu(self, vcpu: VCpu, new_core_id: int) -> None:
        """Re-pin a vCPU to another core (possibly on another socket).

        Crossing a socket boundary flushes the vCPU's LLC occupancy on the
        old socket — its cached lines are useless there — so it restarts
        cold, and (if its memory stays home) it pays remote accesses.

        A failed migration (interceptor veto) leaves the vCPU exactly
        where it was: the failure is raised before any state changes.
        """
        if self.migration_interceptor is not None:
            self.migration_interceptor(vcpu, new_core_id)
        new_core = self.machine.core(new_core_id)
        old_socket = (
            self.machine.core(vcpu.current_core).socket_id
            if vcpu.current_core is not None
            else (
                self.machine.core(vcpu.pinned_core).socket_id
                if vcpu.pinned_core is not None
                else None
            )
        )
        if vcpu.current_core is not None:
            self.context_switch(self.machine.core(vcpu.current_core), None)
        was_unpinned = vcpu.pinned_core is None
        vcpu.pinned_core = new_core_id
        self.scheduler.reassign_vcpu(vcpu, new_core_id)
        if was_unpinned:
            self.scheduler.on_vcpu_pinned(vcpu)
        if old_socket is not None and old_socket != new_core.socket_id:
            self.llc_domains[old_socket].flush_owner(vcpu.gid)
            self.recorder.inc("sys.cross_socket_migrations")
        self.recorder.inc("sys.vcpu_migrations")

    def is_memory_remote(self, vcpu: VCpu, core_id: int) -> bool:
        """True if running on ``core_id`` makes the vCPU's memory remote."""
        return self.machine.core(core_id).socket_id != vcpu.vm.config.memory_node

    # -- measurement -------------------------------------------------------------

    def truth_llc_cap(self, vcpu: VCpu) -> float:
        """Simulator-exact misses/ms over the vCPU's metric window.

        This is the ground truth Kyoto tries to estimate via PMCs.
        """
        if vcpu.cycles_run == 0:
            return 0.0
        # freq_khz == cycles/ms.  The frequency must be the socket the
        # vCPU actually ran on: socket 0's frequency would misconvert
        # cycles to milliseconds on heterogeneous multi-socket specs.
        ms_run = vcpu.cycles_run / (self.freq_khz_of_vcpu(vcpu))
        return vcpu.llc_misses / ms_run

    def occupancy_of(self, vcpu: VCpu) -> float:
        """LLC lines the vCPU holds on its (current or pinned) socket.

        An unplaced, unpinned vCPU reads its VM's memory-node socket —
        not socket 0 — so Kyoto sampling of a never-yet-scheduled vCPU
        homed on another socket doesn't consult the wrong LLC domain.
        """
        return self.llc_domains[self.socket_id_of_vcpu(vcpu)].occupancy_of(
            vcpu.gid
        )

    # -- the tick loop -------------------------------------------------------------

    def add_tick_observer(self, observer: TickObserver) -> None:
        """Register a callback invoked after every completed tick."""
        self._tick_observers.append(observer)

    def run_ticks(self, num_ticks: int) -> None:
        """Advance the machine by ``num_ticks`` scheduler ticks."""
        if num_ticks < 0:
            raise ValueError(f"num_ticks must be >= 0, got {num_ticks}")
        for _ in range(num_ticks):
            self._do_tick()

    def run_ticks_until(
        self, num_ticks: int, stop: Callable[[], bool]
    ) -> int:
        """Advance up to ``num_ticks`` ticks, stopping early once
        ``stop()`` is true after a completed tick; returns ticks run.

        This is the chunked inner loop of the execution-time protocol:
        one call runs a whole chunk without re-entering Python call
        setup per tick, while the per-tick finish check keeps the stop
        point exactly where a tick-by-tick loop would stop.
        """
        if num_ticks < 0:
            raise ValueError(f"num_ticks must be >= 0, got {num_ticks}")
        for ran in range(num_ticks):
            self._do_tick()
            if stop():
                return ran + 1
        return num_ticks

    def run_msec(self, msec: float) -> None:
        """Advance by (at least) ``msec`` milliseconds of machine time."""
        ticks = max(1, int(round(msec * 1000 / self.tick_usec)))
        self.run_ticks(ticks)

    def run_until_finished(self, max_ticks: int = 1_000_000) -> int:
        """Run until every finite workload completes; returns ticks used."""
        start = self.tick_index
        finite_vms = [vm for vm in self.vms if vm.config.workload.is_finite]
        if not finite_vms:
            offenders = ", ".join(
                f"{vm.name} ({type(vm.config.workload).__name__})"
                for vm in self.vms
            )
            raise HypervisorError(
                "run_until_finished needs at least one finite workload; "
                + (
                    f"every VM runs an infinite one: {offenders}"
                    if offenders
                    else "the system has no VMs (use run_ticks or the "
                    "service loop for open-ended runs)"
                )
            )
        while not all(vm.finished for vm in finite_vms):
            if self.tick_index - start >= max_ticks:
                unfinished = ", ".join(
                    f"{vm.name} ({type(vm.config.workload).__name__})"
                    for vm in finite_vms
                    if not vm.finished
                )
                raise HypervisorError(
                    f"workloads did not finish within {max_ticks} ticks; "
                    f"still running: {unfinished}"
                )
            self._do_tick()
        return self.tick_index - start

    def _do_tick(self) -> None:
        self._wake_sleepers()
        self.scheduler.on_tick_start(self.tick_index)
        executor = self._tick_executor
        if executor is None:
            from .batch import BatchTickEngine

            self._batch_engine = BatchTickEngine(self)
            executor = self._tick_executor = self._batch_engine.execute_tick
        executor()
        self.scheduler.on_tick_end(self.tick_index)
        if (self.tick_index + 1) % self.ticks_per_slice == 0:
            self.scheduler.on_accounting(self.tick_index)
        self.engine.clock.advance(self.tick_usec)
        if self.recorder.enabled:
            # Per-tick aggregates; guarded so disabled telemetry skips
            # the summations entirely.
            self.recorder.record(
                "sys.llc_misses_per_tick",
                self.tick_index,
                sum(self.last_tick_misses.values()),
            )
            self.recorder.record(
                "sys.instructions_per_tick",
                self.tick_index,
                sum(self.last_tick_instructions.values()),
            )
            self.recorder.gauge("sys.final_tick", float(self.tick_index))
        for observer in self._tick_observers:
            observer(self, self.tick_index)
        self.tick_index += 1

    def _wake_sleepers(self) -> None:
        """Unblock vCPUs whose think time elapsed; notify the scheduler
        (Xen gives freshly woken vCPUs BOOST priority)."""
        if self._sleeping_count == 0:
            return
        now = self.engine.clock.now_usec
        for vcpu in self.vcpus:
            if vcpu.blocked_until_usec is not None and vcpu.blocked_until_usec <= now:
                vcpu.blocked_until_usec = None
                self._sleeping_count -= 1
                self.scheduler.on_vcpu_wake(vcpu)

    def _execute_tick(self) -> None:
        """Run all placed vCPUs through the tick, in sub-steps.

        Each sub-step first executes every running vCPU against the LLC
        occupancy frozen at the sub-step start, then relaxes each socket's
        occupancy domain under the collected insertion pressures (see
        :meth:`~repro.cachesim.occupancy.LlcOccupancyDomain.relax`).

        The footprint cap handed to ``relax`` is taken from the same
        pre-execution behavior sample that produced the sub-step's misses:
        the insertions and the cap they are bounded by must describe the
        same phase of the workload.  (Re-sampling after execution — the
        old behaviour — let a phase transition inside the sub-step pair
        this phase's misses with the next phase's cap.)
        """
        self.last_tick_cycles = {}
        self.last_tick_misses = {}
        self.last_tick_instructions = {}
        sockets = self.machine.sockets
        cores = self.machine.cores
        for _ in range(self.substeps_per_tick):
            pressures: List[Dict[int, float]] = [{} for _ in sockets]
            caps: List[Dict[int, float]] = [{} for _ in sockets]
            for core in cores:
                vcpu = core.running
                if vcpu is None:
                    # An idle core burns no cycles, so any pending
                    # context-switch penalty dies with the departed
                    # occupant rather than being charged to whichever
                    # vCPU lands here ticks later (which would owe only
                    # its own switch-in cost).
                    self._pending_penalty_cycles.pop(core.core_id, None)
                    continue
                if not vcpu.runnable:
                    # Finished or blocked mid-tick: vacate the core and
                    # let the scheduler place a replacement immediately.
                    self.context_switch(core, None)
                    self.scheduler.refill_core(core)
                    vcpu = core.running
                    if vcpu is None or not vcpu.runnable:
                        self._pending_penalty_cycles.pop(core.core_id, None)
                        continue
                misses, behavior = self._execute_substep(core, vcpu)
                socket = core.socket_id
                pressures[socket][vcpu.gid] = (
                    pressures[socket].get(vcpu.gid, 0.0) + misses
                )
                caps[socket][vcpu.gid] = behavior.footprint_cap_lines
            for socket_id, domain in enumerate(self.llc_domains):
                if pressures[socket_id]:
                    domain.relax(pressures[socket_id], caps[socket_id])

    def _execute_substep(self, core: Core, vcpu: VCpu) -> Tuple[float, "CacheBehavior"]:
        """Execute one vCPU for one sub-step.

        Returns the LLC misses produced and the (pre-execution) behavior
        the step ran under, so the caller can bound the relaxation with
        the cap belonging to the same workload phase.
        """
        core_id = core.core_id
        gid = vcpu.gid
        progress = vcpu.progress
        budget = self._substep_budget_cycles[core_id]
        # Pay any pending context-switch penalty out of the budget: the
        # cycles elapse (and count as unhalted) but retire nothing.
        penalty = min(budget, self._pending_penalty_cycles.get(core_id, 0))
        if penalty:
            self._pending_penalty_cycles[core_id] -= penalty
        work_cycles = budget - penalty

        domain = self.llc_domains[core.socket_id]
        behavior = progress.workload.behavior_at(progress.instructions_done)
        # is_memory_remote(vcpu, core_id), inlined: core.socket_id is the
        # socket of core_id and both operands are fixed at construction.
        remote = core.socket_id != vcpu.vm.config.memory_node
        result = execute_step(
            behavior,
            domain.occupancy_of(gid),
            work_cycles,
            self.spec.latency,
            remote_memory=remote,
        )
        jittered = result.instructions
        if self.perf_jitter_fraction:
            jittered *= 1.0 + self._jitter_stream.uniform(
                -self.perf_jitter_fraction, self.perf_jitter_fraction
            )
        # Clip to remaining work for finite workloads, and to the current
        # burst for interactive workloads (burst end -> think time).
        instructions = min(jittered, progress.remaining_instructions)
        boundary_fn = vcpu._boundary_fn
        if boundary_fn is not None:
            to_boundary = boundary_fn(progress.instructions_done) - (
                progress.instructions_done
            )
            if instructions >= to_boundary:
                instructions = to_boundary
                vcpu.blocked_until_usec = (
                    self.engine.clock.now_usec + progress.workload.think_usec
                )
                self._sleeping_count += 1
        scale = (
            instructions / result.instructions if result.instructions > 0 else 0.0
        )
        llc_accesses = result.llc_accesses * scale
        llc_misses = result.llc_misses * scale

        vcpu.record_execution(budget, instructions, llc_accesses, llc_misses)
        last_cycles = self.last_tick_cycles
        last_cycles[gid] = last_cycles.get(gid, 0) + budget
        last_misses = self.last_tick_misses
        last_misses[gid] = last_misses.get(gid, 0.0) + llc_misses
        last_instructions = self.last_tick_instructions
        last_instructions[gid] = last_instructions.get(gid, 0.0) + instructions

        cycles_pmc, instr_pmc, miss_pmc, ref_pmc = self._substep_pmcs[core_id]
        cycles_pmc.add(budget)
        instr_pmc.add(vcpu.take_integer_instructions(instructions))
        miss_pmc.add(vcpu.take_integer_misses(llc_misses))
        ref_pmc.add(vcpu.take_integer_accesses(llc_accesses))
        if progress.done and progress.finished_at_usec is None:
            progress.finished_at_usec = self.engine.clock.now_usec
        return llc_misses, behavior

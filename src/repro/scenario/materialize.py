"""Materialize a :class:`ScenarioSpec` into a runnable system.

This is the single place that knows how to turn declarative scenario
data into live objects: the machine preset, the scheduler (with its
Kyoto engine), the VM fleet, the monitoring strategy, the fault-plan
injectors and the optional periodic migrator.  Every figure driver and
every TOML scenario funnels through here, so the construction order —
scheduler, system, fault plan, injectors, monitor, VMs — is identical
no matter where the spec came from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.core.ks4linux import KS4Linux
from repro.core.ks4rtds import KS4RTDS
from repro.core.ks4xen import KS4Xen
from repro.core.monitor import (
    DirectPmcMonitor,
    McSimReplayMonitor,
    PollutionMonitor,
    SocketDedicationMonitor,
)
from repro.core.resilient import ResilientMonitor
from repro.faults.injectors import (
    FaultyMonitor,
    FaultyReplayService,
    MigrationFaultInjector,
)
from repro.faults.plan import FaultPlan, FaultSpec, uniform_plan
from repro.hardware.specs import MachineSpec, numa_machine, paper_machine
from repro.hypervisor.migration import PeriodicMigrator
from repro.hypervisor.system import VirtualizedSystem
from repro.hypervisor.vm import VirtualMachine, VmConfig
from repro.schedulers.cfs import CfsScheduler
from repro.schedulers.credit import CreditScheduler
from repro.schedulers.rtds import RtdsScheduler
from repro.pisces.cokernel import PiscesCoKernel
from repro.pisces.ks4pisces import KS4Pisces
from repro.workloads.base import Workload
from repro.workloads.micro import micro_workload
from repro.workloads.profiles import application_workload

from .spec import (
    AdmissionSpec,
    MonitorSpec,
    ScenarioError,
    ScenarioSpec,
    ServiceSpec,
    VmSpec,
    WorkloadSpec,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.service import AdmissionController, ServiceLoop


@dataclass
class Materialized:
    """A scenario brought to life: the system plus every attached part."""

    spec: ScenarioSpec
    system: VirtualizedSystem
    scheduler: object
    #: name -> VM, in creation order (count-expanded names included).
    vms: Dict[str, VirtualMachine] = field(default_factory=dict)
    fault_plan: Optional[FaultPlan] = None
    monitor: Optional[PollutionMonitor] = None
    migrator: Optional[PeriodicMigrator] = None
    #: The churn-driven service loop (only with a [service] section).
    service: Optional[ServiceLoop] = None
    #: Uninstall hooks for the fault injectors, in install order.
    _uninstallers: List[Callable[[], None]] = field(default_factory=list)

    @property
    def kyoto(self):
        """The scheduler's Kyoto engine (None for non-ks4* kinds)."""
        return getattr(self.scheduler, "kyoto", None)

    def vm(self, name: str) -> VirtualMachine:
        return self.vms[name]

    @property
    def target(self) -> VirtualMachine:
        """The VM the scenario's protocol measures."""
        return self.vms[self.spec.target_vm_name()]

    def uninstall_faults(self) -> None:
        """Remove every installed fault injector (reverse order)."""
        while self._uninstallers:
            self._uninstallers.pop()()


_BASE_SCHEDULERS = {
    "xcs": CreditScheduler,
    "cfs": CfsScheduler,
    "rtds": RtdsScheduler,
    "pisces": PiscesCoKernel,
}
_KYOTO_SCHEDULERS = {
    "ks4xen": KS4Xen,
    "ks4linux": KS4Linux,
    "ks4rtds": KS4RTDS,
    "ks4pisces": KS4Pisces,
}


def machine_for(preset: str) -> MachineSpec:
    """Resolve a machine preset name to its :class:`MachineSpec`."""
    if preset == "paper":
        return paper_machine()
    if preset == "numa":
        return numa_machine()
    raise ScenarioError([f"machine.preset: unknown preset {preset!r}"])


def scheduler_for(spec: ScenarioSpec):
    """Construct the scheduler the spec asks for (monitor attached later)."""
    kind = spec.scheduler.kind
    base = _BASE_SCHEDULERS.get(kind)
    if base is not None:
        return base()
    kyoto = _KYOTO_SCHEDULERS.get(kind)
    if kyoto is None:
        raise ScenarioError([f"scheduler.kind: unknown kind {kind!r}"])
    return kyoto(
        quota_max_factor=spec.scheduler.quota_max_factor,
        monitor_period_ticks=spec.scheduler.monitor_period_ticks,
        quota_min_factor=spec.scheduler.quota_min_factor,
    )


def workload_for(spec: WorkloadSpec) -> Workload:
    """Instantiate the workload a :class:`WorkloadSpec` describes."""
    if spec.kind == "application":
        assert spec.app is not None  # enforced by validate()
        return application_workload(
            spec.app, total_instructions=spec.total_instructions
        )
    assert spec.wss_bytes is not None
    return micro_workload(
        spec.wss_bytes,
        total_instructions=spec.total_instructions,
        disruptive=spec.disruptive,
    )


def vm_configs_for(spec: VmSpec, total_cores: int) -> List[VmConfig]:
    """Expand one :class:`VmSpec` into its (possibly counted) configs."""
    if spec.count == 1:
        return [
            VmConfig(
                name=spec.name,
                workload=workload_for(spec.workload),
                num_vcpus=spec.num_vcpus,
                weight=spec.weight,
                cap_percent=spec.cap_percent,
                llc_cap=spec.llc_cap,
                memory_node=spec.memory_node,
                pinned_cores=(
                    list(spec.pinned_cores) if spec.pinned_cores is not None else None
                ),
            )
        ]
    configs = []
    for i in range(spec.count):
        pinned = None
        if spec.pinned_cores is not None:
            pinned = [(spec.pinned_cores[0] + i) % total_cores]
        configs.append(
            VmConfig(
                name=f"{spec.name}-{i}",
                workload=workload_for(spec.workload),
                num_vcpus=spec.num_vcpus,
                weight=spec.weight,
                cap_percent=spec.cap_percent,
                llc_cap=spec.llc_cap,
                memory_node=spec.memory_node,
                pinned_cores=pinned,
            )
        )
    return configs


def admission_for(spec: AdmissionSpec) -> AdmissionController:
    """Construct the admission controller an :class:`AdmissionSpec` asks for."""
    from repro.service import (
        CapacityCapAdmission,
        NaiveAdmission,
        PermitBudgetAdmission,
    )

    if spec.policy == "naive":
        return NaiveAdmission()
    if spec.policy == "capacity":
        assert spec.max_vcpus is not None  # enforced by validate()
        return CapacityCapAdmission(spec.max_vcpus)
    if spec.policy == "permit_budget":
        assert spec.llc_budget is not None
        return PermitBudgetAdmission(spec.llc_budget)
    raise ScenarioError(
        [f"service.admission.policy: unknown policy {spec.policy!r}"]
    )


def service_loop_for(
    service: ServiceSpec, system: VirtualizedSystem
) -> ServiceLoop:
    """Build the churn generator, admission policy and service loop.

    All stochastic draws come from rng streams derived from the scenario
    seed (``service.arrivals``, ``service.lifetimes``,
    ``service.templates``), so a soak run is bit-reproducible.
    """
    from repro.service import ChurnGenerator, ServiceLoop, VmTemplate

    arrivals = service.arrivals
    lifetime = service.lifetime
    churn = ChurnGenerator(
        system.rng.stream("service.arrivals"),
        system.rng.stream("service.lifetimes"),
        process=arrivals.process,
        rate_per_tick=arrivals.rate_per_tick,
        burst_probability=arrivals.burst_probability,
        burst_size=arrivals.burst_size,
        diurnal_amplitude=arrivals.diurnal_amplitude,
        diurnal_period_ticks=arrivals.diurnal_period_ticks,
        lifetime_kind=lifetime.kind,
        lifetime_mean_ticks=lifetime.mean_ticks,
        lifetime_sigma=lifetime.sigma,
    )
    templates = [
        VmTemplate(
            name=template.name,
            # Bound per template: every admission stamps a fresh workload.
            make_workload=lambda workload=template.workload: workload_for(
                workload
            ),
            num_vcpus=template.num_vcpus,
            weight=template.weight,
            cap_percent=template.cap_percent,
            llc_cap=template.llc_cap,
            memory_node=template.memory_node,
        )
        for template in service.templates
    ]
    return ServiceLoop(
        system,
        churn,
        admission_for(service.admission),
        templates,
        system.rng.stream("service.templates"),
        drain_at_end=service.drain_at_end,
    )


def _fault_plan_for(spec: ScenarioSpec, system: VirtualizedSystem) -> FaultPlan:
    assert spec.faults is not None
    faults = spec.faults
    # Dynamic by design: the stream name comes from the validated scenario
    # file, so collisions are the scenario author's explicit choice.
    rng = system.rng.stream(faults.stream)  # kyotolint: disable=S002
    if faults.uniform_rate is not None:
        return uniform_plan(faults.uniform_rate, rng, burst=faults.burst)
    specs = [
        FaultSpec(
            site=site.site,
            probability=site.probability,
            burst=site.burst,
            windows=site.windows,
        )
        for site in faults.sites
    ]
    return FaultPlan(specs, rng=rng)


def _chain_member(
    member: str,
    monitor_spec: MonitorSpec,
    system: VirtualizedSystem,
    plan: Optional[FaultPlan],
) -> PollutionMonitor:
    """One monitor of a chain, fault-wrapped when a plan is installed."""
    if member == "direct":
        direct = DirectPmcMonitor(system)
        if plan is not None:
            return FaultyMonitor(direct, plan)
        return direct
    if member == "dedication":
        # Migration faults reach dedication windows through the
        # hypervisor-level MigrationFaultInjector, not a wrapper.
        return SocketDedicationMonitor(
            system, sample_ticks=monitor_spec.sample_ticks
        )
    if member == "replay":
        from repro.mcsim.service import ReplayService

        service: object = ReplayService(
            refresh_every=monitor_spec.replay_refresh_every,
            max_report_age=monitor_spec.replay_max_report_age,
        )
        if plan is not None:
            service = FaultyReplayService(service, plan, system)
        return McSimReplayMonitor(system, service)
    raise ScenarioError([f"monitor.chain: unknown member {member!r}"])


def monitor_for(
    spec: ScenarioSpec,
    system: VirtualizedSystem,
    plan: Optional[FaultPlan] = None,
) -> Optional[PollutionMonitor]:
    """Build the monitoring strategy (None keeps the engine default)."""
    monitor_spec = spec.monitor
    if monitor_spec.strategy == "default":
        return None
    if monitor_spec.strategy == "resilient":
        chain = [
            _chain_member(member, monitor_spec, system, plan)
            for member in monitor_spec.chain
        ]
        return ResilientMonitor(
            system, chain=chain, retries=monitor_spec.retries
        )
    return _chain_member(monitor_spec.strategy, monitor_spec, system, plan)


def materialize(spec: ScenarioSpec) -> Materialized:
    """Turn a validated spec into a runnable :class:`Materialized`.

    Raises :class:`ScenarioError` for problems only visible against the
    concrete machine (e.g. a pinned core that does not exist on the
    chosen preset).
    """
    spec.validate()
    scheduler = scheduler_for(spec)
    machine = machine_for(spec.machine.preset)
    system = VirtualizedSystem(
        scheduler,
        machine,
        tick_usec=spec.system.tick_usec,
        ticks_per_slice=spec.system.ticks_per_slice,
        substeps_per_tick=spec.system.substeps_per_tick,
        context_switch_cost_cycles=spec.system.context_switch_cost_cycles,
        perf_jitter_fraction=spec.system.perf_jitter_fraction,
        seed=spec.system.seed,
    )
    built = Materialized(spec=spec, system=system, scheduler=scheduler)

    if spec.faults is not None:
        built.fault_plan = _fault_plan_for(spec, system)
        injector = MigrationFaultInjector(system, built.fault_plan)
        built._uninstallers.append(injector.uninstall)

    built.monitor = monitor_for(spec, system, built.fault_plan)
    if built.monitor is not None:
        kyoto = getattr(scheduler, "kyoto", None)
        if kyoto is None:
            raise ScenarioError(
                [
                    f"monitor.strategy: {spec.monitor.strategy!r} needs a "
                    f"Kyoto scheduler (ks4*), not {spec.scheduler.kind!r}"
                ]
            )
        kyoto.monitor = built.monitor

    total_cores = machine.total_cores
    for vm_spec in spec.vms:
        for config in vm_configs_for(vm_spec, total_cores):
            if config.pinned_cores is not None:
                for core in config.pinned_cores:
                    if core >= total_cores:
                        raise ScenarioError(
                            [
                                f"vms: {config.name!r} pins core {core} but "
                                f"machine preset {spec.machine.preset!r} has "
                                f"only {total_cores} cores"
                            ]
                        )
            built.vms[config.name] = system.create_vm(config)

    if spec.service is not None:
        built.service = service_loop_for(spec.service, system)

    if spec.migration is not None:
        migration = spec.migration
        target_name = (
            migration.vm if migration.vm is not None else spec.target_vm_name()
        )
        vm = built.vms[target_name]
        try:
            built.migrator = PeriodicMigrator(
                system,
                vm.vcpus[0],
                home_core=migration.home_core,
                remote_core=migration.remote_core,
                period_ticks=migration.period_ticks,
                min_dwell_ticks=migration.min_dwell_ticks,
                max_dwell_ticks=migration.max_dwell_ticks,
                seed=migration.seed,
            )
        except ValueError as exc:
            raise ScenarioError([f"migration: {exc}"]) from exc

    return built

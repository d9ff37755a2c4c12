"""The declarative scenario schema (``repro.scenario/1``).

A :class:`ScenarioSpec` captures everything needed to reproduce one
run of the simulated IaaS — machine, scheduler, VM fleet with workload
profiles and pinning, Kyoto/enforcement configuration including the
resilient-monitor strategy, an optional fault plan, telemetry toggles,
and a measurement protocol — as plain, validated, serializable
dataclasses.  The figure drivers under :mod:`repro.experiments` build
these specs programmatically; TOML/JSON files on disk build the exact
same objects through :mod:`repro.scenario.serialize`, so "a new
experiment" is a ~20-line TOML file, not a new Python driver.

Specs are *inert data*: nothing here imports the hypervisor.  Turning a
spec into a runnable system is :mod:`repro.scenario.materialize`'s job.

Every stochastic input of a scenario is the single ``system.seed``
integer — specs never touch ambient randomness (kyotolint D001/D002),
so one spec pins one bit-exact run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.faults.plan import KNOWN_SITES

from .defaults import (
    DEFAULT_EXEC_MAX_TICKS,
    DEFAULT_MEASURE_TICKS,
    DEFAULT_WARMUP_TICKS,
)

#: Schema identifier of a serialized scenario document.
SCENARIO_SCHEMA = "repro.scenario/1"

#: Machine presets the materializer knows how to build.
MACHINE_PRESETS = ("paper", "numa")

#: Scheduler kinds (``ks4*`` kinds enable the Kyoto engine).
SCHEDULER_KINDS = (
    "xcs", "ks4xen", "cfs", "ks4linux", "rtds", "ks4rtds",
    "pisces", "ks4pisces",
)
KYOTO_SCHEDULER_KINDS = ("ks4xen", "ks4linux", "ks4rtds", "ks4pisces")

#: Monitoring strategies (``default`` lets the engine pick direct PMC).
MONITOR_STRATEGIES = ("default", "direct", "dedication", "replay", "resilient")

#: Members a resilient failover chain may list.
CHAIN_MEMBERS = ("replay", "dedication", "direct")

WORKLOAD_KINDS = ("application", "micro")

PROTOCOL_MODES = ("measure", "execution_time")

#: Arrival processes the service-mode churn generator implements.
ARRIVAL_PROCESSES = ("poisson", "bursty")

#: VM lifetime distributions.
LIFETIME_KINDS = ("exponential", "lognormal", "fixed")

#: Admission-control policies (docs/service.md).
ADMISSION_POLICIES = ("naive", "capacity", "permit_budget")


class ScenarioError(ValueError):
    """Invalid scenario definition; carries every collected error."""

    def __init__(self, errors: Sequence[str]) -> None:
        self.errors: List[str] = list(errors)
        super().__init__(
            "invalid scenario:\n  " + "\n  ".join(self.errors)
            if len(self.errors) != 1
            else f"invalid scenario: {self.errors[0]}"
        )


class _Errors:
    """Collects dotted-path validation errors."""

    def __init__(self) -> None:
        self.items: List[str] = []
        #: Paths already reported as NaN/inf; their range checks are moot.
        self._non_finite: Set[str] = set()

    def add(self, path: str, message: str) -> None:
        if path not in self._non_finite:
            self.items.append(f"{path}: {message}")

    def reject_non_finite(self, spec: Any, path: str = "") -> None:
        """Report every NaN or infinite float field of ``spec``, nested
        specs included, at the path its own ``validate`` would use."""
        for spec_field in fields(spec):
            name = spec_field.name
            value = getattr(spec, name)
            where = f"{path}.{name}" if path else name
            if isinstance(value, float) and not math.isfinite(value):
                self.add(where, f"must be a finite number, got {value}")
                self._non_finite.add(where)
            elif is_dataclass(value):
                self.reject_non_finite(value, where)
            elif isinstance(value, tuple):
                for i, item in enumerate(value):
                    if is_dataclass(item):
                        self.reject_non_finite(item, f"{where}[{i}]")

    def raise_if_any(self) -> None:
        if self.items:
            raise ScenarioError(self.items)


@dataclass(frozen=True)
class WorkloadSpec:
    """What one VM runs.

    ``kind="application"`` selects a calibrated SPEC CPU2006-style
    profile by name (:mod:`repro.workloads.profiles`);
    ``kind="micro"`` the Drepper pointer-chase micro-benchmark over
    ``wss_bytes`` of memory (:mod:`repro.workloads.micro`), with
    ``disruptive=True`` selecting its eviction-maximising variant.
    ``total_instructions`` makes the workload finite (execution-time
    protocols need one finite target).
    """

    kind: str = "application"
    app: Optional[str] = None
    wss_bytes: Optional[int] = None
    disruptive: bool = False
    total_instructions: Optional[float] = None

    def validate(self, path: str, errors: _Errors) -> None:
        if self.kind not in WORKLOAD_KINDS:
            errors.add(
                f"{path}.kind",
                f"unknown workload kind {self.kind!r}; "
                f"expected one of {', '.join(WORKLOAD_KINDS)}",
            )
            return
        if self.kind == "application":
            if not self.app:
                errors.add(
                    f"{path}.app",
                    "application workloads need an 'app' name "
                    "(e.g. \"gcc\", \"lbm\")",
                )
            if self.wss_bytes is not None:
                errors.add(
                    f"{path}.wss_bytes",
                    "wss_bytes only applies to kind=\"micro\"",
                )
        else:  # micro
            if self.app is not None:
                errors.add(
                    f"{path}.app", "app only applies to kind=\"application\""
                )
            if self.wss_bytes is None or self.wss_bytes <= 0:
                errors.add(
                    f"{path}.wss_bytes",
                    "micro workloads need a positive working-set size "
                    f"in bytes, got {self.wss_bytes}",
                )
        if self.total_instructions is not None and self.total_instructions <= 0:
            errors.add(
                f"{path}.total_instructions",
                f"must be positive when set, got {self.total_instructions}",
            )


@dataclass(frozen=True)
class VmSpec:
    """One VM of the fleet (or ``count`` clones of it).

    With ``count > 1`` the materializer creates ``count`` VMs named
    ``{name}-0 .. {name}-{count-1}``; when ``pinned_cores`` then holds a
    single entry ``[c]``, clone ``i`` is pinned to
    ``(c + i) % total_cores`` — the round-robin fill of the Fig 6
    consolidation sweep.
    """

    name: str
    workload: WorkloadSpec
    count: int = 1
    num_vcpus: int = 1
    weight: int = 256
    cap_percent: Optional[float] = None
    llc_cap: Optional[float] = None
    memory_node: int = 0
    pinned_cores: Optional[Tuple[int, ...]] = None

    def validate(self, path: str, errors: _Errors) -> None:
        if not self.name:
            errors.add(f"{path}.name", "VM name must be non-empty")
        self.workload.validate(f"{path}.workload", errors)
        if self.count < 1:
            errors.add(f"{path}.count", f"must be >= 1, got {self.count}")
        if self.num_vcpus < 1:
            errors.add(f"{path}.num_vcpus", f"must be >= 1, got {self.num_vcpus}")
        if self.weight <= 0:
            errors.add(f"{path}.weight", f"must be positive, got {self.weight}")
        if self.cap_percent is not None and not (
            0 <= self.cap_percent <= 100 * self.num_vcpus
        ):
            errors.add(
                f"{path}.cap_percent",
                f"must be in [0, {100 * self.num_vcpus}], got {self.cap_percent}",
            )
        if self.llc_cap is not None and self.llc_cap < 0:
            errors.add(f"{path}.llc_cap", f"must be >= 0, got {self.llc_cap}")
        if self.memory_node < 0:
            errors.add(f"{path}.memory_node", f"must be >= 0, got {self.memory_node}")
        if self.pinned_cores is not None:
            if self.count > 1 and len(self.pinned_cores) != 1:
                errors.add(
                    f"{path}.pinned_cores",
                    "a counted VM takes exactly one pinned core (clone i "
                    f"rotates from it), got {list(self.pinned_cores)}",
                )
            elif self.count == 1 and len(self.pinned_cores) != self.num_vcpus:
                errors.add(
                    f"{path}.pinned_cores",
                    f"must list one core per vCPU ({self.num_vcpus}), "
                    f"got {list(self.pinned_cores)}",
                )
            if any(core < 0 for core in self.pinned_cores):
                errors.add(
                    f"{path}.pinned_cores",
                    f"core ids must be >= 0, got {list(self.pinned_cores)}",
                )


@dataclass(frozen=True)
class MachineSpecChoice:
    """Which modelled physical machine the scenario runs on."""

    preset: str = "paper"

    def validate(self, path: str, errors: _Errors) -> None:
        if self.preset not in MACHINE_PRESETS:
            errors.add(
                f"{path}.preset",
                f"unknown machine preset {self.preset!r}; "
                f"expected one of {', '.join(MACHINE_PRESETS)}",
            )


@dataclass(frozen=True)
class SchedulerChoice:
    """Scheduler kind plus the Kyoto enforcement knobs.

    The quota factors only apply to the ``ks4*`` kinds;
    ``quota_min_factor`` (the bank bound of docs/faults.md) is only
    supported by ``ks4xen``.
    """

    kind: str = "xcs"
    quota_max_factor: float = 3.0
    monitor_period_ticks: int = 1
    quota_min_factor: Optional[float] = None

    def validate(self, path: str, errors: _Errors) -> None:
        if self.kind not in SCHEDULER_KINDS:
            errors.add(
                f"{path}.kind",
                f"unknown scheduler kind {self.kind!r}; "
                f"expected one of {', '.join(SCHEDULER_KINDS)}",
            )
            return
        if self.monitor_period_ticks <= 0:
            errors.add(
                f"{path}.monitor_period_ticks",
                f"must be positive, got {self.monitor_period_ticks}",
            )
        if self.quota_max_factor <= 0:
            errors.add(
                f"{path}.quota_max_factor",
                f"must be positive, got {self.quota_max_factor}",
            )
        if self.quota_min_factor is not None:
            if self.kind != "ks4xen":
                errors.add(
                    f"{path}.quota_min_factor",
                    f"only supported by kind=\"ks4xen\", not {self.kind!r}",
                )
            elif self.quota_min_factor <= 0:
                errors.add(
                    f"{path}.quota_min_factor",
                    f"must be positive when set, got {self.quota_min_factor}",
                )


@dataclass(frozen=True)
class MonitorSpec:
    """How the Kyoto engine measures ``llc_cap_act``.

    ``default`` keeps the engine's own choice (direct PMC reads);
    ``resilient`` builds the failover chain of
    :mod:`repro.core.resilient` from ``chain`` members.  When a fault
    plan is present, the materializer wires the injectors into the
    matching members (replay faults into replay members, PMC faults
    into direct members, migration faults into the hypervisor).
    """

    strategy: str = "default"
    sample_ticks: int = 1
    chain: Tuple[str, ...] = ("replay", "dedication", "direct")
    retries: int = 1
    replay_refresh_every: int = 50
    replay_max_report_age: Optional[int] = None

    def validate(self, path: str, errors: _Errors) -> None:
        if self.strategy not in MONITOR_STRATEGIES:
            errors.add(
                f"{path}.strategy",
                f"unknown monitor strategy {self.strategy!r}; "
                f"expected one of {', '.join(MONITOR_STRATEGIES)}",
            )
            return
        if self.sample_ticks <= 0:
            errors.add(
                f"{path}.sample_ticks",
                f"must be positive, got {self.sample_ticks}",
            )
        if self.retries < 0:
            errors.add(f"{path}.retries", f"must be >= 0, got {self.retries}")
        if self.strategy == "resilient":
            if not self.chain:
                errors.add(
                    f"{path}.chain", "a resilient chain needs at least one member"
                )
            for i, member in enumerate(self.chain):
                if member not in CHAIN_MEMBERS:
                    errors.add(
                        f"{path}.chain[{i}]",
                        f"unknown chain member {member!r}; "
                        f"expected one of {', '.join(CHAIN_MEMBERS)}",
                    )
        if self.replay_refresh_every <= 0:
            errors.add(
                f"{path}.replay_refresh_every",
                f"must be positive, got {self.replay_refresh_every}",
            )
        if self.replay_max_report_age is not None and self.replay_max_report_age <= 0:
            errors.add(
                f"{path}.replay_max_report_age",
                f"must be positive when set, got {self.replay_max_report_age}",
            )


@dataclass(frozen=True)
class FaultSiteSpec:
    """Fault behaviour of one site (mirrors repro.faults.FaultSpec)."""

    site: str
    probability: float = 0.0
    burst: int = 1
    windows: Tuple[Tuple[int, int], ...] = ()

    def validate(self, path: str, errors: _Errors) -> None:
        if self.site not in KNOWN_SITES:
            errors.add(
                f"{path}.site",
                f"unknown fault site {self.site!r}; known sites: "
                f"{', '.join(KNOWN_SITES)}",
            )
        if not 0.0 <= self.probability <= 1.0:
            errors.add(
                f"{path}.probability",
                f"must be in [0, 1], got {self.probability}",
            )
        if self.burst < 1:
            errors.add(f"{path}.burst", f"must be >= 1, got {self.burst}")
        for i, window in enumerate(self.windows):
            if len(window) != 2 or window[0] < 0 or window[1] <= window[0]:
                errors.add(
                    f"{path}.windows[{i}]",
                    "must be [start_tick, end_tick] with 0 <= start < end, "
                    f"got {list(window)}",
                )


@dataclass(frozen=True)
class FaultsSpec:
    """The scenario's deterministic fault plan.

    Either ``uniform_rate`` (every known site fires at that probability
    — the chaos sweep primitive) or an explicit ``sites`` list.  All
    probabilistic draws come from the injected rng stream named
    ``stream``, derived from the scenario seed.
    """

    uniform_rate: Optional[float] = None
    burst: int = 1
    sites: Tuple[FaultSiteSpec, ...] = ()
    stream: str = "faults.plan"

    def validate(self, path: str, errors: _Errors) -> None:
        if self.uniform_rate is not None and self.sites:
            errors.add(
                path, "uniform_rate and explicit sites are mutually exclusive"
            )
        if self.uniform_rate is not None and not 0.0 <= self.uniform_rate <= 1.0:
            errors.add(
                f"{path}.uniform_rate",
                f"must be in [0, 1], got {self.uniform_rate}",
            )
        if self.burst < 1:
            errors.add(f"{path}.burst", f"must be >= 1, got {self.burst}")
        if not self.stream:
            errors.add(f"{path}.stream", "stream name must be non-empty")
        seen = set()
        for i, site in enumerate(self.sites):
            site.validate(f"{path}.sites[{i}]", errors)
            if site.site in seen:
                errors.add(
                    f"{path}.sites[{i}]", f"duplicate spec for site {site.site!r}"
                )
            seen.add(site.site)


@dataclass(frozen=True)
class MigrationSpec:
    """Optional periodic vCPU migration (the Fig 9 dwell choreography)."""

    home_core: int = 0
    remote_core: int = 4
    period_ticks: int = 10
    min_dwell_ticks: int = 1
    max_dwell_ticks: int = 3
    seed: int = 0
    vm: Optional[str] = None

    def validate(self, path: str, errors: _Errors) -> None:
        if self.period_ticks <= 0:
            errors.add(
                f"{path}.period_ticks",
                f"must be positive, got {self.period_ticks}",
            )
        if not 1 <= self.min_dwell_ticks <= self.max_dwell_ticks:
            errors.add(
                path,
                "need 1 <= min_dwell_ticks <= max_dwell_ticks, got "
                f"{self.min_dwell_ticks}..{self.max_dwell_ticks}",
            )
        if self.home_core < 0 or self.remote_core < 0:
            errors.add(path, "core ids must be >= 0")


@dataclass(frozen=True)
class SystemSpec:
    """Simulation substrate knobs (defaults mirror VirtualizedSystem)."""

    tick_usec: int = 10_000
    ticks_per_slice: int = 3
    substeps_per_tick: int = 10
    context_switch_cost_cycles: int = 20_000
    perf_jitter_fraction: float = 0.0
    seed: int = 0

    def validate(self, path: str, errors: _Errors) -> None:
        if self.tick_usec <= 0:
            errors.add(f"{path}.tick_usec", f"must be positive, got {self.tick_usec}")
        if self.ticks_per_slice <= 0:
            errors.add(
                f"{path}.ticks_per_slice",
                f"must be positive, got {self.ticks_per_slice}",
            )
        if self.substeps_per_tick <= 0:
            errors.add(
                f"{path}.substeps_per_tick",
                f"must be positive, got {self.substeps_per_tick}",
            )
        if self.context_switch_cost_cycles < 0:
            errors.add(
                f"{path}.context_switch_cost_cycles",
                f"must be >= 0, got {self.context_switch_cost_cycles}",
            )
        if not 0.0 <= self.perf_jitter_fraction < 1.0:
            errors.add(
                f"{path}.perf_jitter_fraction",
                f"must be in [0, 1), got {self.perf_jitter_fraction}",
            )


@dataclass(frozen=True)
class ProtocolSpec:
    """What to measure once the system is built.

    ``measure`` warms up, resets the target's metrics and measures IPC
    over a window (optionally against a solo baseline on an otherwise
    idle clone of the machine); ``execution_time`` runs until the
    (finite) target workload completes and reports seconds.
    """

    mode: str = "measure"
    warmup_ticks: int = DEFAULT_WARMUP_TICKS
    measure_ticks: int = DEFAULT_MEASURE_TICKS
    max_ticks: int = DEFAULT_EXEC_MAX_TICKS
    target_vm: Optional[str] = None
    solo_baseline: bool = False

    def validate(self, path: str, errors: _Errors) -> None:
        if self.mode not in PROTOCOL_MODES:
            errors.add(
                f"{path}.mode",
                f"unknown protocol mode {self.mode!r}; "
                f"expected one of {', '.join(PROTOCOL_MODES)}",
            )
        if self.warmup_ticks < 0:
            errors.add(
                f"{path}.warmup_ticks", f"must be >= 0, got {self.warmup_ticks}"
            )
        if self.measure_ticks <= 0:
            errors.add(
                f"{path}.measure_ticks",
                f"must be positive, got {self.measure_ticks}",
            )
        if self.max_ticks <= 0:
            errors.add(f"{path}.max_ticks", f"must be positive, got {self.max_ticks}")


@dataclass(frozen=True)
class TelemetrySpec:
    """Telemetry toggles for the scenario run."""

    enabled: bool = True
    series_capacity: int = 512

    def validate(self, path: str, errors: _Errors) -> None:
        if self.series_capacity <= 0:
            errors.add(
                f"{path}.series_capacity",
                f"must be positive, got {self.series_capacity}",
            )


@dataclass(frozen=True)
class ArrivalSpec:
    """The service mode's VM arrival process.

    ``poisson`` draws per-tick arrival counts from a Poisson law at
    ``rate_per_tick``; ``bursty`` layers rare bursts of ``burst_size``
    simultaneous arrivals on top (cloud "thundering herd" admission).
    A nonzero ``diurnal_amplitude`` modulates the rate sinusoidally over
    ``diurnal_period_ticks`` (day/night load).
    """

    process: str = "poisson"
    rate_per_tick: float = 0.01
    burst_probability: float = 0.0
    burst_size: int = 3
    diurnal_amplitude: float = 0.0
    diurnal_period_ticks: int = 0

    def validate(self, path: str, errors: _Errors) -> None:
        if self.process not in ARRIVAL_PROCESSES:
            errors.add(
                f"{path}.process",
                f"unknown arrival process {self.process!r}; "
                f"expected one of {', '.join(ARRIVAL_PROCESSES)}",
            )
        if self.rate_per_tick < 0:
            errors.add(
                f"{path}.rate_per_tick",
                f"must be >= 0, got {self.rate_per_tick}",
            )
        if not 0.0 <= self.burst_probability <= 1.0:
            errors.add(
                f"{path}.burst_probability",
                f"must be in [0, 1], got {self.burst_probability}",
            )
        if self.burst_size < 1:
            errors.add(
                f"{path}.burst_size", f"must be >= 1, got {self.burst_size}"
            )
        if not 0.0 <= self.diurnal_amplitude <= 1.0:
            errors.add(
                f"{path}.diurnal_amplitude",
                f"must be in [0, 1], got {self.diurnal_amplitude}",
            )
        if self.diurnal_amplitude > 0.0 and self.diurnal_period_ticks <= 0:
            errors.add(
                f"{path}.diurnal_period_ticks",
                "must be positive when diurnal_amplitude is set, got "
                f"{self.diurnal_period_ticks}",
            )


@dataclass(frozen=True)
class LifetimeSpec:
    """How long an admitted VM lives before the service retires it."""

    kind: str = "exponential"
    mean_ticks: float = 1_000.0
    sigma: float = 0.5

    def validate(self, path: str, errors: _Errors) -> None:
        if self.kind not in LIFETIME_KINDS:
            errors.add(
                f"{path}.kind",
                f"unknown lifetime kind {self.kind!r}; "
                f"expected one of {', '.join(LIFETIME_KINDS)}",
            )
        if self.mean_ticks <= 0:
            errors.add(
                f"{path}.mean_ticks",
                f"must be positive, got {self.mean_ticks}",
            )
        if self.kind == "lognormal" and self.sigma <= 0:
            errors.add(
                f"{path}.sigma",
                f"must be positive for lognormal lifetimes, got {self.sigma}",
            )


@dataclass(frozen=True)
class AdmissionSpec:
    """Which admission controller gates arrivals.

    ``naive`` admits everything; ``capacity`` caps the number of live
    vCPUs at ``max_vcpus``; ``permit_budget`` caps the summed booked
    ``llc_cap`` of live VMs at ``llc_budget`` (the paper's permits as an
    admission currency).
    """

    policy: str = "naive"
    max_vcpus: Optional[int] = None
    llc_budget: Optional[float] = None

    def validate(self, path: str, errors: _Errors) -> None:
        if self.policy not in ADMISSION_POLICIES:
            errors.add(
                f"{path}.policy",
                f"unknown admission policy {self.policy!r}; "
                f"expected one of {', '.join(ADMISSION_POLICIES)}",
            )
            return
        if self.policy == "capacity":
            if self.max_vcpus is None or self.max_vcpus < 1:
                errors.add(
                    f"{path}.max_vcpus",
                    "capacity admission needs max_vcpus >= 1, got "
                    f"{self.max_vcpus}",
                )
        elif self.max_vcpus is not None:
            errors.add(
                f"{path}.max_vcpus",
                "only applies to policy=\"capacity\"",
            )
        if self.policy == "permit_budget":
            if self.llc_budget is None or self.llc_budget <= 0:
                errors.add(
                    f"{path}.llc_budget",
                    "permit_budget admission needs a positive llc_budget, "
                    f"got {self.llc_budget}",
                )
        elif self.llc_budget is not None:
            errors.add(
                f"{path}.llc_budget",
                "only applies to policy=\"permit_budget\"",
            )


@dataclass(frozen=True)
class ServiceTemplateSpec:
    """One entry of the service's VM template pool.

    Admitted VMs are stamped from a template (chosen round-robin by
    weight-free draw order) and named ``{name}-s{seq}`` with a global
    monotonic sequence number.  Templates carry no ``count`` and no
    pinning: placement is the scheduler's job in a churning fleet.
    """

    name: str
    workload: WorkloadSpec
    num_vcpus: int = 1
    weight: int = 256
    cap_percent: Optional[float] = None
    llc_cap: Optional[float] = None
    memory_node: int = 0

    def validate(self, path: str, errors: _Errors) -> None:
        if not self.name:
            errors.add(f"{path}.name", "template name must be non-empty")
        self.workload.validate(f"{path}.workload", errors)
        if self.num_vcpus < 1:
            errors.add(
                f"{path}.num_vcpus", f"must be >= 1, got {self.num_vcpus}"
            )
        if self.weight <= 0:
            errors.add(f"{path}.weight", f"must be positive, got {self.weight}")
        if self.cap_percent is not None and not (
            0 <= self.cap_percent <= 100 * self.num_vcpus
        ):
            errors.add(
                f"{path}.cap_percent",
                f"must be in [0, {100 * self.num_vcpus}], got {self.cap_percent}",
            )
        if self.llc_cap is not None and self.llc_cap < 0:
            errors.add(f"{path}.llc_cap", f"must be >= 0, got {self.llc_cap}")
        if self.memory_node < 0:
            errors.add(
                f"{path}.memory_node", f"must be >= 0, got {self.memory_node}"
            )


@dataclass(frozen=True)
class ServiceSpec:
    """The optional ``[service]`` section: churn-driven IaaS mode.

    Present, it turns the scenario into an open system — VMs from
    ``templates`` arrive under ``arrivals``, live for a ``lifetime``
    draw, and are gated by ``admission``.  Any static ``[[vms]]`` still
    materialize at tick 0 and churn alongside.  All stochastic draws
    come from the scenario seed via named rng streams
    (``service.arrivals``, ``service.lifetimes``, ``service.templates``).
    """

    arrivals: ArrivalSpec = field(default_factory=ArrivalSpec)
    lifetime: LifetimeSpec = field(default_factory=LifetimeSpec)
    admission: AdmissionSpec = field(default_factory=AdmissionSpec)
    templates: Tuple[ServiceTemplateSpec, ...] = ()
    #: Retire every live VM at the end of the soak (settles all accounts).
    drain_at_end: bool = True

    def validate(self, path: str, errors: _Errors) -> None:
        self.arrivals.validate(f"{path}.arrivals", errors)
        self.lifetime.validate(f"{path}.lifetime", errors)
        self.admission.validate(f"{path}.admission", errors)
        if not self.templates:
            errors.add(
                f"{path}.templates",
                "service mode needs at least one VM template",
            )
        names = set()
        for i, template in enumerate(self.templates):
            template.validate(f"{path}.templates[{i}]", errors)
            if template.name in names:
                errors.add(
                    f"{path}.templates[{i}].name",
                    f"duplicate template name {template.name!r}",
                )
            names.add(template.name)


@dataclass(frozen=True)
class ScenarioSpec:
    """One complete, self-contained experiment definition."""

    name: str
    description: str = ""
    schema: str = SCENARIO_SCHEMA
    machine: MachineSpecChoice = field(default_factory=MachineSpecChoice)
    scheduler: SchedulerChoice = field(default_factory=SchedulerChoice)
    system: SystemSpec = field(default_factory=SystemSpec)
    monitor: MonitorSpec = field(default_factory=MonitorSpec)
    vms: Tuple[VmSpec, ...] = ()
    faults: Optional[FaultsSpec] = None
    migration: Optional[MigrationSpec] = None
    protocol: ProtocolSpec = field(default_factory=ProtocolSpec)
    telemetry: TelemetrySpec = field(default_factory=TelemetrySpec)
    service: Optional[ServiceSpec] = None

    def validate(self) -> "ScenarioSpec":
        """Raise :class:`ScenarioError` listing every problem found."""
        errors = _Errors()
        errors.reject_non_finite(self)
        if self.schema != SCENARIO_SCHEMA:
            errors.add(
                "schema",
                f"unsupported schema {self.schema!r}; "
                f"this build reads {SCENARIO_SCHEMA!r}",
            )
        if not self.name:
            errors.add("name", "scenario name must be non-empty")
        self.machine.validate("machine", errors)
        self.scheduler.validate("scheduler", errors)
        self.system.validate("system", errors)
        self.monitor.validate("monitor", errors)
        if not self.vms and self.service is None:
            errors.add(
                "vms",
                "a scenario needs at least one VM (or a [service] section)",
            )
        names = set()
        for i, vm in enumerate(self.vms):
            vm.validate(f"vms[{i}]", errors)
            if vm.name in names:
                errors.add(f"vms[{i}].name", f"duplicate VM name {vm.name!r}")
            names.add(vm.name)
        if self.faults is not None:
            self.faults.validate("faults", errors)
        if self.migration is not None:
            self.migration.validate("migration", errors)
            if not self.vms:
                errors.add(
                    "migration",
                    "periodic migration targets the static fleet; a "
                    "service-only scenario has no VM at tick 0 to migrate",
                )
            if self.migration.vm is not None and self.migration.vm not in names:
                errors.add(
                    "migration.vm",
                    f"no VM named {self.migration.vm!r} in the fleet",
                )
        self.protocol.validate("protocol", errors)
        self.telemetry.validate("telemetry", errors)
        if self.service is not None:
            self.service.validate("service", errors)
        if self.protocol.target_vm is not None and self.vms:
            expanded = set()
            for vm in self.vms:
                if vm.count == 1:
                    expanded.add(vm.name)
                else:
                    expanded.update(f"{vm.name}-{i}" for i in range(vm.count))
            if self.protocol.target_vm not in expanded:
                errors.add(
                    "protocol.target_vm",
                    f"no VM named {self.protocol.target_vm!r} in the fleet "
                    f"(have: {', '.join(sorted(expanded))})",
                )
        errors.raise_if_any()
        return self

    def target_vm_name(self) -> str:
        """The VM the protocol measures (defaults to the first VM)."""
        if self.protocol.target_vm is not None:
            return self.protocol.target_vm
        first = self.vms[0]
        return first.name if first.count == 1 else f"{first.name}-0"


def _scalar_fields(spec: Any) -> Dict[str, Any]:
    return {f.name: getattr(spec, f.name) for f in fields(spec)}

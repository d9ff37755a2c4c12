"""Aggressiveness campaigns (the machinery behind Figs 4 and 11).

Section 4.2's methodology:

1. run each application **alone** and compute its pollution indicators —
   the naive LLCM (misses per kilo-instruction of the sampling window) and
   equation 1 (misses per millisecond);
2. run each application **in parallel with each other application** and
   measure the performance degradation it inflicts; the application's
   *real aggressiveness* is the average degradation it causes.  A
   parallel co-run slows both VMs, so each unordered pair co-runs once
   and both VMs are measured: one co-run gives the degradation each
   application inflicts on the other;
3. compare the indicator-induced orderings to the real one with Kendall's
   tau.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.equation import llc_cap_act, llcm_indicator
# Submodule imports (not the repro.scenario package) to stay cycle-free:
# repro.scenario.runner pulls in repro.analysis.reporting.
from repro.scenario.materialize import materialize
from repro.scenario.spec import (
    MachineSpecChoice,
    ScenarioSpec,
    VmSpec,
    WorkloadSpec,
)

from .kendall import kendall_tau, ranking_from_scores
from .metrics import degradation_percent


@dataclass
class SoloProfile:
    """Indicators measured while an application runs alone."""

    app: str
    ipc: float
    llcm: float       # misses per kilo-instruction
    equation1: float  # misses per millisecond


@dataclass
class AggressivenessReport:
    """Everything Fig 4 plots for one application."""

    app: str
    solo: SoloProfile
    #: victim app -> degradation (%) this app caused in parallel co-run.
    degradation_caused: Dict[str, float] = field(default_factory=dict)

    @property
    def real_aggressiveness(self) -> float:
        """Average degradation caused across all victims."""
        if not self.degradation_caused:
            return 0.0
        return sum(self.degradation_caused.values()) / len(self.degradation_caused)


@dataclass
class CampaignConfig:
    """Knobs of an aggressiveness campaign."""

    warmup_ticks: int = 20
    measure_ticks: int = 60
    machine_preset: str = "paper"


def run_solo(app: str, config: Optional[CampaignConfig] = None) -> SoloProfile:
    """Run ``app`` alone on core 0 and measure its indicators."""
    if config is None:
        config = CampaignConfig()
    built = materialize(_solo_spec(app, config))
    system = built.system
    vm = built.vm(app)
    system.run_ticks(config.warmup_ticks)
    vm.reset_metrics()
    system.run_ticks(config.measure_ticks)
    vcpu = vm.vcpus[0]
    return SoloProfile(
        app=app,
        ipc=vcpu.ipc,
        llcm=llcm_indicator(vcpu.llc_misses, vcpu.instructions_retired),
        equation1=llc_cap_act(vcpu.llc_misses, vcpu.cycles_run, system.freq_khz),
    )


def _solo_spec(app: str, config: CampaignConfig) -> ScenarioSpec:
    return ScenarioSpec(
        name=f"aggressiveness-solo-{app}",
        machine=MachineSpecChoice(preset=config.machine_preset),
        vms=(
            VmSpec(name=app, workload=WorkloadSpec(app=app), pinned_cores=(0,)),
        ),
    )


def _co_run_ipcs(
    core0_app: str, core1_app: str, config: CampaignConfig
) -> Dict[str, float]:
    """Co-run two applications pinned to cores 0 and 1 of one socket —
    the paper's "parallel execution" situation — and measure both:
    ``{app: ipc}`` over the measurement window."""
    built = materialize(
        ScenarioSpec(
            name=f"aggressiveness-{core1_app}-vs-{core0_app}",
            machine=MachineSpecChoice(preset=config.machine_preset),
            vms=tuple(
                VmSpec(name=app, workload=WorkloadSpec(app=app), pinned_cores=(core,))
                for core, app in enumerate((core0_app, core1_app))
            ),
        )
    )
    system = built.system
    vms = {app: built.vm(app) for app in (core0_app, core1_app)}
    system.run_ticks(config.warmup_ticks)
    for vm in vms.values():
        vm.reset_metrics()
    system.run_ticks(config.measure_ticks)
    return {app: vm.vcpus[0].ipc for app, vm in vms.items()}


def run_pair_degradation(
    aggressor: str,
    victim: str,
    victim_solo_ipc: float,
    config: Optional[CampaignConfig] = None,
) -> float:
    """Degradation (%) ``aggressor`` inflicts on ``victim`` in parallel
    (victim on core 0, aggressor on core 1)."""
    if config is None:
        config = CampaignConfig()
    ipcs = _co_run_ipcs(victim, aggressor, config)
    return degradation_percent(victim_solo_ipc, ipcs[victim])


def run_campaign(
    apps: Sequence[str], config: Optional[CampaignConfig] = None
) -> Dict[str, AggressivenessReport]:
    """Full Fig 4 campaign over ``apps``: solo profiles + all pairs.

    Each unordered pair co-runs once and both VMs' IPCs are kept.  The
    later app of ``apps`` takes core 0, as the victim of
    ``run_pair_degradation(apps[i], apps[j], ...)`` for ``i < j`` does.
    With two pinned owners every float reduction has at most two terms,
    so swapping the cores only permutes commutative sums: the core-1 IPC
    is bit-identical to the role-swapped run's victim IPC.
    """
    if config is None:
        config = CampaignConfig()
    if len(set(apps)) != len(apps):
        raise ValueError(f"duplicate applications in {apps}")
    solos = {app: run_solo(app, config) for app in apps}
    #: (aggressor, victim) -> the victim's IPC in their co-run.
    co_run_ipc: Dict[Tuple[str, str], float] = {}
    for i, first in enumerate(apps):
        for second in apps[i + 1:]:
            ipcs = _co_run_ipcs(second, first, config)
            co_run_ipc[(first, second)] = ipcs[second]
            co_run_ipc[(second, first)] = ipcs[first]
    reports = {app: AggressivenessReport(app=app, solo=solos[app]) for app in apps}
    # Nested-loop order: real_aggressiveness sums the dict in insertion
    # order, which pins the float result.
    for aggressor in apps:
        for victim in apps:
            if victim != aggressor:
                reports[aggressor].degradation_caused[victim] = degradation_percent(
                    solos[victim].ipc, co_run_ipc[(aggressor, victim)]
                )
    return reports


@dataclass
class OrderingComparison:
    """The Fig 4 conclusion: which indicator tracks reality better."""

    real_order: List[str]
    llcm_order: List[str]
    equation1_order: List[str]
    tau_llcm: float
    tau_equation1: float

    @property
    def equation1_wins(self) -> bool:
        """True when equation 1's ordering is closer to the real one."""
        return self.tau_equation1 > self.tau_llcm


def compare_orderings(
    reports: Dict[str, AggressivenessReport]
) -> OrderingComparison:
    """Derive o1/o2/o3 and their Kendall taus from campaign reports."""
    real = ranking_from_scores(
        {app: r.real_aggressiveness for app, r in reports.items()}
    )
    llcm = ranking_from_scores({app: r.solo.llcm for app, r in reports.items()})
    eq1 = ranking_from_scores(
        {app: r.solo.equation1 for app, r in reports.items()}
    )
    return OrderingComparison(
        real_order=real,
        llcm_order=llcm,
        equation1_order=eq1,
        tau_llcm=kendall_tau(real, llcm),
        tau_equation1=kendall_tau(real, eq1),
    )

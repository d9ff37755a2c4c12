"""Ablations — the design-choice studies beyond the paper's figures.

Five drivers, each a ``run_*`` returning a small result and a
``format_*`` rendering it, registered as ``abl-*`` extras (runnable by
name, not part of ``run all``):

* ``abl-quota`` — the pollution-quota bank size (``quota_max_factor``):
  a larger bank lets a bursty VM prepay longer pollution bursts, a
  smaller one punishes sooner and clips the polluter's duty cycle;
* ``abl-period`` — how often KS4Xen samples the PMCs and debits the
  quota (Section 3.3's "periodically"): a slower monitor costs fewer
  samples and must still enforce;
* ``abl-policy`` — LLC replacement policies (LRU / random / BIP / DIP /
  PDP) against a streaming scan: how much of Kyoto's problem better
  hardware policies could absorb;
* ``abl-model`` — the mean-field occupancy model cross-validated against
  the faithful set-associative simulator on the same two-owner mix;
* ``abl-enforce`` — the paper's positioning (Section 6) made
  quantitative: one victim-vs-disruptor colocation under no protection
  (XCS), page colouring, UCP, MemGuard and Kyoto.  Partitioning protects
  the victim without touching the disruptor's CPU; Kyoto charges the
  polluter CPU time instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.analysis.metrics import normalized_performance
from repro.analysis.reporting import format_table
from repro.cachesim.occupancy import LlcOccupancyDomain
from repro.cachesim.perfmodel import CacheBehavior, hit_probability
from repro.cachesim.replacement import make_policy
from repro.cachesim.setassoc import SetAssociativeCache
from repro.core.ks4xen import KS4Xen
from repro.core.memguard import MemGuardScheduler
from repro.hardware.specs import KIB, CacheSpec
from repro.hypervisor.system import VirtualizedSystem
from repro.hypervisor.vm import VirtualMachine, VmConfig
from repro.partitioning.static import apply_page_coloring
from repro.partitioning.ucp import UcpController
from repro.schedulers.base import Scheduler
from repro.schedulers.credit import CreditScheduler
from repro.workloads.profiles import application_workload
from repro.workloads.tracegen import TraceConfig, generate_trace

from .common import PAPER_LLC_CAP, measured_ipc, solo_ipc_of

QUOTA_FACTORS = (1.0, 2.0, 3.0, 6.0, 12.0)
MONITOR_PERIODS = (1, 2, 3, 6, 12)
POLICIES = ("lru", "random", "bip", "dip", "pdp")
ENFORCEMENTS = ("none (XCS)", "page coloring", "ucp", "memguard", "kyoto (KS4Xen)")
WARMUP_TICKS = 30

#: A small LLC keeps the faithful simulation fast: 64 KiB = 1024 lines.
MODEL_CACHE = CacheSpec("LLC", 64 * KIB, 8, shared=True)
#: Owners A and B of the model cross-validation: B's working set is bigger.
MODEL_BEHAVIORS = (
    CacheBehavior(wss_lines=700, lapki=100, base_cpi=0.8, locality_theta=1.0),
    CacheBehavior(wss_lines=900, lapki=100, base_cpi=0.8, locality_theta=1.0),
)


def _colocation(
    scheduler: Scheduler,
    victim_app: str,
    disruptor_app: str,
    llc_cap: Optional[float] = PAPER_LLC_CAP,
) -> Tuple[VirtualizedSystem, VirtualMachine, VirtualMachine]:
    """A victim pinned to core 0 beside a disruptor on core 1."""
    system = VirtualizedSystem(scheduler)

    def pinned(name: str, app: str, core: int) -> VirtualMachine:
        return system.create_vm(
            VmConfig(name=name, workload=application_workload(app),
                     llc_cap=llc_cap, pinned_cores=[core])
        )

    return system, pinned("victim", victim_app, 0), pinned("disruptor", disruptor_app, 1)


@dataclass
class QuotaPoint:
    punishments: int
    #: Fraction of all ticks (warm-up included) the disruptor ran.
    duty: float
    victim_ipc: float


def run_quota() -> Dict[float, QuotaPoint]:
    measure_ticks = 200
    results: Dict[float, QuotaPoint] = {}
    for factor in QUOTA_FACTORS:
        scheduler = KS4Xen(quota_max_factor=factor)
        system, victim, disruptor = _colocation(scheduler, "gcc", "lbm")
        gid = disruptor.vcpus[0].gid
        ran = [0]

        def observer(sys_: VirtualizedSystem, tick_index: int) -> None:
            ran[0] += gid in sys_.last_tick_cycles

        system.add_tick_observer(observer)
        ipc = measured_ipc(system, victim, WARMUP_TICKS, measure_ticks)
        results[factor] = QuotaPoint(
            punishments=scheduler.kyoto.punishments(disruptor),
            duty=ran[0] / (WARMUP_TICKS + measure_ticks),
            victim_ipc=ipc,
        )
    return results


def format_quota(results: Dict[float, QuotaPoint]) -> str:
    return format_table(
        ["quota_max_factor", "# punishments", "disruptor duty", "victim IPC"],
        [[f, p.punishments, p.duty, p.victim_ipc] for f, p in results.items()],
        title="Ablation: pollution-quota bank size",
    )


@dataclass
class PeriodPoint:
    victim_ipc: float
    samples: int
    punishments: int


def run_period() -> Dict[int, PeriodPoint]:
    results: Dict[int, PeriodPoint] = {}
    for period in MONITOR_PERIODS:
        scheduler = KS4Xen(monitor_period_ticks=period)
        system, victim, disruptor = _colocation(scheduler, "gcc", "blockie")
        ipc = measured_ipc(system, victim, WARMUP_TICKS, 240)
        account = scheduler.kyoto.account_of(disruptor)
        results[period] = PeriodPoint(ipc, account.samples, account.punishments)
    return results


def format_period(results: Dict[int, PeriodPoint]) -> str:
    return format_table(
        ["monitor period (ticks)", "victim IPC", "# samples", "# punishments"],
        [[t, p.victim_ipc, p.samples, p.punishments] for t, p in results.items()],
        title="Ablation: monitoring period",
    )


def _hot_set_survival(policy_name: str) -> float:
    """Hit ratio of a 64-line hot set interleaved with a long scan."""
    cache = SetAssociativeCache(CacheSpec("LLC", 32 * KIB, 8), make_policy(policy_name))
    hot = [i * 64 for i in range(64)]
    scan_base = 1 << 24
    for _ in range(20):  # warm the hot set
        for address in hot:
            cache.access(address, owner=1)
    rounds = 60
    hits = 0
    scan_cursor = 0
    for _ in range(rounds):
        for address in hot:
            hits += cache.access(address, owner=1).hit
        for _ in range(1024):  # the scan: 2x the cache per round
            cache.access(scan_base + scan_cursor * 64, owner=2)
            scan_cursor += 1
    return hits / (rounds * len(hot))


def run_policy() -> Dict[str, float]:
    return {policy: _hot_set_survival(policy) for policy in POLICIES}


def format_policy(results: Dict[str, float]) -> str:
    return format_table(
        ["policy", "hot-set hit ratio under scan"],
        [[p, ratio] for p, ratio in results.items()],
        title="Ablation: replacement policies vs a streaming scan",
    )


def _faithful_shares() -> Tuple[float, float]:
    """Interleave two synthetic traces through the real simulator."""
    a, b = MODEL_BEHAVIORS
    cache = SetAssociativeCache(MODEL_CACHE)
    trace_a = generate_trace(a, 120_000, TraceConfig(seed=1, base_address=0))
    trace_b = generate_trace(b, 120_000, TraceConfig(seed=2, base_address=1 << 28))
    for addr_a, addr_b in zip(trace_a, trace_b):
        cache.access(addr_a, owner=1)
        cache.access(addr_b, owner=2)
    total = cache.spec.num_lines
    return cache.occupancy_of(1) / total, cache.occupancy_of(2) / total


def _analytical_shares() -> Tuple[float, float]:
    """Iterate the occupancy model's relax to its fixed point."""
    a, b = MODEL_BEHAVIORS
    domain = LlcOccupancyDomain(MODEL_CACHE.num_lines)
    for _ in range(400):
        miss_a = 100 * (1 - hit_probability(a, domain.occupancy_of(1)))
        miss_b = 100 * (1 - hit_probability(b, domain.occupancy_of(2)))
        domain.relax(
            {1: miss_a, 2: miss_b},
            {1: a.footprint_cap_lines, 2: b.footprint_cap_lines},
        )
    total = domain.total_lines
    return domain.occupancy_of(1) / total, domain.occupancy_of(2) / total


def run_model() -> Dict[str, Tuple[float, float]]:
    """Owner A / owner B LLC shares per substrate."""
    return {"faithful": _faithful_shares(), "analytical": _analytical_shares()}


def format_model(results: Dict[str, Tuple[float, float]]) -> str:
    return format_table(
        ["substrate", "owner A share", "owner B share"],
        [[name, a, b] for name, (a, b) in results.items()],
        title="Ablation: occupancy model vs set-associative simulator",
    )


@dataclass
class EnforcePoint:
    victim: float
    #: Instructions the disruptor retired in the window, not its IPC:
    #: Kyoto's lever parks it, so it retires less even though its
    #: IPC-while-running barely moves.
    disruptor_throughput: float


def _enforce_point(approach: str, baseline: float, measure_ticks: int) -> EnforcePoint:
    scheduler: Scheduler
    if approach == "kyoto (KS4Xen)":
        scheduler = KS4Xen()
    elif approach == "memguard":
        scheduler = MemGuardScheduler()
    else:
        scheduler = CreditScheduler()
    llc_cap = PAPER_LLC_CAP if approach in ("kyoto (KS4Xen)", "memguard") else None
    system, victim, disruptor = _colocation(scheduler, "omnetpp", "lbm", llc_cap)
    if approach == "page coloring":
        apply_page_coloring(system, {victim: 110_000})
    elif approach == "ucp":
        UcpController(system, period_ticks=6)
    system.run_ticks(WARMUP_TICKS)
    victim.reset_metrics()
    disruptor.reset_metrics()
    system.run_ticks(measure_ticks)
    return EnforcePoint(
        victim=normalized_performance(baseline, victim.vcpus[0].ipc),
        disruptor_throughput=disruptor.instructions_retired,
    )


def run_enforce() -> Dict[str, EnforcePoint]:
    measure_ticks = 150
    baseline = solo_ipc_of(
        application_workload("omnetpp"),
        warmup_ticks=WARMUP_TICKS,
        measure_ticks=measure_ticks,
    )
    return {
        approach: _enforce_point(approach, baseline, measure_ticks)
        for approach in ENFORCEMENTS
    }


def format_enforce(results: Dict[str, EnforcePoint]) -> str:
    return format_table(
        ["approach", "victim normalized perf", "disruptor throughput (instr)"],
        [[a, p.victim, p.disruptor_throughput] for a, p in results.items()],
        title="Ablation: enforcement approaches vs the same colocation",
    )

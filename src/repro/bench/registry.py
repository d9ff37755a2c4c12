"""The benchmark catalogue: every hot path the simulator funnels through.

Each benchmark builds its system-under-test from fixed seeds inside
``setup`` (untimed) and exercises exactly one hot path in ``body``
(timed), returning a deterministic check value.  The catalogue covers:

* ``tick_loop_{2,8,32}vcpu`` — the full tick loop (scheduler placement,
  sub-step execution, LLC relaxation, accounting) at three consolidation
  ratios on the paper's 4-core machine,
* ``tick_loop_orbit`` — the tick loop of a pinned one-VM-per-core co-run
  whose occupancies settle on a period-2 orbit, past warm-up,
* ``vm_churn_soak`` — the service loop's dynamic lifecycle (admit,
  batched-slot rebuild, retire) on the 4x16-core machine,
* ``occupancy_relax`` — the per-substep shared-LLC relaxation alone,
* ``occupancy_relax_dense`` — the same, in the shape every relaxation
  takes at a dense schedule (16 contributors, no dead lines),
* ``credit_pick_steal`` — credit-scheduler placement: ``_pick`` on a
  loaded core plus the ``_steal`` scan from idle cores,
* ``scenario_materialize`` — spec -> live-system construction,
* ``campaign_fanout`` — campaign plumbing (name expansion + artifact
  aggregation), no experiments executed,
* ``exec_time_protocol`` — the chunked execution-time protocol on the
  Fig 12 workload shape (the retired ``tools/bench_exec_time.py``).

Workload sizes target ~0.1-0.5 s per sample on a developer machine:
long enough for stable medians, short enough that the whole suite runs
in well under a minute.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Tuple

from repro.cachesim.occupancy import LlcOccupancyDomain
from repro.experiments.campaign import ARTIFACT_SCHEMA, aggregate_artifacts
from repro.experiments.registry import expand_names
from repro.hardware.latency import PAPER_LATENCIES
from repro.hardware.specs import (
    CacheSpec,
    KIB,
    MIB,
    MachineSpec,
    SocketSpec,
    paper_machine,
)
from repro.hypervisor.system import VirtualizedSystem
from repro.hypervisor.vm import VmConfig
from repro.pmc.counters import PmcEvent
from repro.schedulers.credit import CreditScheduler
from repro.service import (
    CapacityCapAdmission,
    ChurnGenerator,
    ServiceLoop,
    VmTemplate,
)
from repro.workloads.profiles import application_workload

from .runner import Benchmark

#: LLC lines of the paper machine (10 MiB / 64 B).
_PAPER_LLC_LINES = paper_machine().sockets[0].llc.num_lines


# -- tick loop ---------------------------------------------------------------


def _tick_loop_system(num_vcpus: int) -> VirtualizedSystem:
    """A fresh XCS system with ``num_vcpus`` single-vCPU gcc VMs.

    VMs are unpinned: the scheduler spreads them over the 4 cores, so
    under-committed sizes exercise the idle-core ``_steal`` scan and
    over-committed sizes exercise candidate filtering and rotation.
    """
    system = VirtualizedSystem(CreditScheduler(), paper_machine())
    for index in range(num_vcpus):
        system.create_vm(
            VmConfig(name=f"vm{index}", workload=application_workload("gcc"))
        )
    return system


def _run_tick_loop(system: VirtualizedSystem, ticks: int) -> List[Any]:
    system.run_ticks(ticks)
    total_instructions = sum(
        vcpu.instructions_retired for vcpu in system.vcpus
    )
    return [system.tick_index, round(total_instructions, 3)]


def _tick_loop_benchmark(num_vcpus: int, ticks: int) -> Benchmark:
    return Benchmark(
        name=f"tick_loop_{num_vcpus}vcpu",
        description=(
            f"full tick loop: {num_vcpus} gcc vCPUs on 4 cores, "
            f"{ticks} ticks"
        ),
        setup=lambda: _tick_loop_system(num_vcpus),
        body=lambda system: _run_tick_loop(system, ticks),
    )


def _wide_machine() -> MachineSpec:
    """4 sockets x 16 cores: the consolidation scale the batched engine
    targets (the scalar path is >2x slower per sample here, with the
    occupant churn of 4:1 overcommit working against the step memo)."""
    socket = SocketSpec(
        cores=16,
        freq_khz=2_800_000,
        l1d=CacheSpec("L1D", 32 * KIB, 8),
        l1i=CacheSpec("L1I", 32 * KIB, 8),
        l2=CacheSpec("L2", 256 * KIB, 8),
        llc=CacheSpec("LLC", 20 * MIB, 20, shared=True),
    )
    return MachineSpec(
        name="bench-4s64c",
        sockets=(socket,) * 4,
        memory_bytes=4 * 32_768 * MIB,
        latency=PAPER_LATENCIES,
    )


_WIDE_APPS = ("gcc", "lbm", "mcf", "povray")


def _tick_loop_wide_system(num_vcpus: int) -> VirtualizedSystem:
    """256 mixed-profile single-vCPU VMs spread over 4 memory nodes."""
    system = VirtualizedSystem(CreditScheduler(), _wide_machine())
    for index in range(num_vcpus):
        system.create_vm(
            VmConfig(
                name=f"vm{index}",
                workload=application_workload(_WIDE_APPS[index % 4]),
                memory_node=index % 4,
            )
        )
    return system


def _tick_loop_wide_benchmark(num_vcpus: int, ticks: int) -> Benchmark:
    return Benchmark(
        name=f"tick_loop_{num_vcpus}vcpu",
        description=(
            f"full tick loop: {num_vcpus} mixed vCPUs on 4x16 cores, "
            f"{ticks} ticks"
        ),
        setup=lambda: _tick_loop_wide_system(num_vcpus),
        body=lambda system: _run_tick_loop(system, ticks),
    )


# -- period-2 orbit ----------------------------------------------------------

_ORBIT_APPS = ("gcc", "povray", "lbm", "mcf")
_ORBIT_WARMUP_TICKS = 10
_ORBIT_TICKS = 1500


def _orbit_setup() -> VirtualizedSystem:
    """gcc, povray, lbm and mcf pinned one per core, past warm-up: two
    owners' occupancies then flip between two states one ulp apart on
    every sub-step, so the tick engine replays a period-2 orbit."""
    system = VirtualizedSystem(CreditScheduler(), paper_machine())
    for core, app in enumerate(_ORBIT_APPS):
        system.create_vm(
            VmConfig(
                name=app,
                workload=application_workload(app),
                pinned_cores=[core],
            )
        )
    system.run_ticks(_ORBIT_WARMUP_TICKS)
    return system


def _orbit_body(system: VirtualizedSystem) -> str:
    """Run the ticks; digest vCPU metrics, PMC totals and occupancy."""
    system.run_ticks(_ORBIT_TICKS)
    rows: List[Any] = []
    for vcpu in system.vcpus:
        system.perfctr.flush_running(vcpu.gid)
        account = system.perfctr.account(vcpu.gid)
        rows.append(
            (
                vcpu.cycles_run,
                vcpu.instructions_retired,
                vcpu.llc_accesses,
                vcpu.llc_misses,
                [account.read(event) for event in PmcEvent],
            )
        )
    rows.append(list(system.llc_domains[0].snapshot().items()))
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


# -- vm churn soak -----------------------------------------------------------

_CHURN_SOAK_TICKS = 150


def _churn_soak_setup() -> ServiceLoop:
    """A churning fleet on the 64-core machine: the dynamic-lifecycle
    hot path — admit, batched-slot rebuild, retire with occupancy flush
    and series compaction — at service-mode rates."""
    system = VirtualizedSystem(CreditScheduler(), _wide_machine())
    churn = ChurnGenerator(
        system.rng.stream("bench.churn.arrivals"),
        system.rng.stream("bench.churn.lifetimes"),
        rate_per_tick=0.25,
        lifetime_kind="exponential",
        lifetime_mean_ticks=200.0,
    )
    templates = [
        VmTemplate(
            name=app,
            make_workload=lambda app=app: application_workload(app),
            memory_node=node,
        )
        for node, app in enumerate(_WIDE_APPS)
    ]
    return ServiceLoop(
        system,
        churn,
        CapacityCapAdmission(max_vcpus=128),
        templates,
        system.rng.stream("bench.churn.templates"),
    )


def _churn_soak_body(loop: ServiceLoop) -> List[Any]:
    summary = loop.run(_CHURN_SOAK_TICKS)
    return [
        summary["admitted"],
        summary["retired"],
        summary["drained"],
        summary["peak_live_vms"],
        summary["context_switches"],
    ]


# -- occupancy relax ---------------------------------------------------------

_RELAX_ROUNDS = 8000

#: A domain and the (pressures, caps) rounds the body cycles through.
_RelaxPayload = Tuple[LlcOccupancyDomain, List[Tuple[Dict[int, float], Dict[int, float]]]]


def _occupancy_setup() -> _RelaxPayload:
    domain = LlcOccupancyDomain(_PAPER_LLC_LINES)
    # Two alternating active sets so descheduled owners' dead lines are
    # consumed every other round (both relax phases exercised).
    even = {gid: 400.0 + 25.0 * gid for gid in range(0, 8, 2)}
    odd = {gid: 400.0 + 25.0 * gid for gid in range(1, 8, 2)}
    caps = {gid: 30_000.0 + 2_000.0 * gid for gid in range(8)}
    return domain, [(even, caps), (odd, caps)]


def _occupancy_body(payload: _RelaxPayload) -> float:
    domain, rounds = payload
    for index in range(_RELAX_ROUNDS):
        pressures, caps = rounds[index % len(rounds)]
        domain.relax(pressures, caps)
    return round(domain.used_lines, 3)


#: One socket of the dense 4x16-core machine: 20 MiB of 64-byte lines.
_DENSE_LLC_LINES = 20 * MIB // 64


def _occupancy_dense_setup() -> _RelaxPayload:
    domain = LlcOccupancyDomain(_DENSE_LLC_LINES)
    # Sixteen owners, all contributing every round, so no line is ever
    # dead; their pressures rotate so the state keeps moving (the no-op
    # memo never hits).  The largest share, 1550/18800 of the socket
    # (~27k lines), stays below every cap: the waterfill never saturates.
    caps = {gid: 60_000.0 + 1_000.0 * gid for gid in range(16)}
    return domain, [
        ({gid: 800.0 + 50.0 * ((gid + shift) % 16) for gid in range(16)}, caps)
        for shift in range(4)
    ]


# -- credit placement --------------------------------------------------------

_PICK_ROUNDS = 4000


def _credit_setup() -> VirtualizedSystem:
    """Eight vCPUs pinned to core 0: cores 1-3 are permanently idle.

    Every ``on_tick_start`` runs ``_pick`` over 8 candidates on core 0
    and a full (fruitless, pinned vCPUs are unstealable) ``_steal`` scan
    from each idle core — the worst-case placement pass.
    """
    system = VirtualizedSystem(CreditScheduler(), paper_machine())
    for index in range(8):
        system.create_vm(
            VmConfig(
                name=f"pinned{index}",
                workload=application_workload("gcc"),
                pinned_cores=[0],
            )
        )
    return system


def _credit_body(system: VirtualizedSystem) -> int:
    scheduler = system.scheduler
    for tick in range(_PICK_ROUNDS):
        scheduler.on_tick_start(tick)
    running = system.machine.core(0).running
    return -1 if running is None else running.gid


# -- scenario materialization ------------------------------------------------

_MATERIALIZE_ROUNDS = 300


def _materialize_spec():
    from repro.scenario import ScenarioSpec, VmSpec, WorkloadSpec

    return ScenarioSpec(
        name="bench-materialize",
        vms=(
            VmSpec(name="sen", workload=WorkloadSpec(app="gcc"), llc_cap=250_000),
            VmSpec(
                name="noisy",
                workload=WorkloadSpec(app="lbm"),
                llc_cap=250_000,
                count=4,
            ),
        ),
    )


def _materialize_body(spec) -> List[Any]:
    from repro.scenario import materialize

    built = None
    for _ in range(_MATERIALIZE_ROUNDS):
        built = materialize(spec)
    assert built is not None
    return [built.system.machine.total_cores, len(built.system.vcpus)]


# -- campaign fan-out plumbing ----------------------------------------------

_FANOUT_ROUNDS = 500


def _fanout_setup() -> List[Dict[str, Any]]:
    artifacts: List[Dict[str, Any]] = []
    for index in range(64):
        artifacts.append(
            {
                "schema": ARTIFACT_SCHEMA,
                "name": f"bench-artifact-{index:02d}",
                "description": "synthetic artifact for fan-out benchmarking",
                "ok": index % 16 != 7,
                "report": f"row {index}\n" * 40,
                "error": None if index % 16 != 7 else "BenchError: synthetic",
                "wall_time_sec": 0.25 + 0.001 * index,
                "telemetry": {"counters": {"bench.rows": 40}},
            }
        )
    return artifacts


def _fanout_body(artifacts: List[Dict[str, Any]]) -> List[int]:
    summary: Dict[str, Any] = {}
    known: List[str] = []
    for _ in range(_FANOUT_ROUNDS):
        known, unknown = expand_names(["all"])
        assert not unknown
        summary = aggregate_artifacts(artifacts)
    return [summary["num_experiments"], summary["num_failed"], len(known)]


# -- execution-time protocol -------------------------------------------------

_EXEC_TIME_INSTRUCTIONS = 4e10


def _exec_time_setup():
    from repro.scenario import (
        ProtocolSpec,
        ScenarioSpec,
        VmSpec,
        WorkloadSpec,
        materialize,
    )

    workload = WorkloadSpec(
        app="povray", total_instructions=_EXEC_TIME_INSTRUCTIONS
    )
    spec = ScenarioSpec(
        name="bench-exec-time",
        vms=(
            VmSpec(name="povray-a", workload=workload, pinned_cores=(0,)),
            VmSpec(name="povray-b", workload=workload, pinned_cores=(0,)),
        ),
        protocol=ProtocolSpec(mode="execution_time", target_vm="povray-a"),
    )
    return materialize(spec)


def _exec_time_body(built) -> float:
    from repro.scenario import execution_time_sec

    return round(execution_time_sec(built.system, built.vm("povray-a")), 6)


#: The catalogue, in canonical run order.
BENCHMARKS: Tuple[Benchmark, ...] = (
    _tick_loop_benchmark(2, 600),
    _tick_loop_benchmark(8, 500),
    _tick_loop_benchmark(32, 300),
    _tick_loop_wide_benchmark(256, 40),
    Benchmark(
        name="tick_loop_orbit",
        description=(
            f"full tick loop: gcc, povray, lbm and mcf pinned one per core "
            f"on a period-2 occupancy orbit, {_ORBIT_TICKS} ticks"
        ),
        setup=_orbit_setup,
        body=_orbit_body,
    ),
    Benchmark(
        name="vm_churn_soak",
        description=(
            f"service loop churn: Poisson admits/retires on 4x16 cores, "
            f"{_CHURN_SOAK_TICKS} ticks with batched-slot rebuilds"
        ),
        setup=_churn_soak_setup,
        body=_churn_soak_body,
    ),
    Benchmark(
        name="occupancy_relax",
        description=(
            f"shared-LLC relaxation: 8 owners, alternating active sets, "
            f"{_RELAX_ROUNDS} rounds"
        ),
        setup=_occupancy_setup,
        body=_occupancy_body,
    ),
    Benchmark(
        name="occupancy_relax_dense",
        description=(
            f"shared-LLC relaxation, dense shape: 16 owners all active on "
            f"a 20 MiB socket, no saturation, {_RELAX_ROUNDS} rounds"
        ),
        setup=_occupancy_dense_setup,
        body=_occupancy_body,
    ),
    Benchmark(
        name="credit_pick_steal",
        description=(
            f"credit placement: _pick over 8 candidates + _steal scans "
            f"from 3 idle cores, {_PICK_ROUNDS} rounds"
        ),
        setup=_credit_setup,
        body=_credit_body,
    ),
    Benchmark(
        name="scenario_materialize",
        description=(
            f"spec -> system materialization, 5 VMs with counted "
            f"expansion, {_MATERIALIZE_ROUNDS} rounds"
        ),
        setup=_materialize_spec,
        body=_materialize_body,
    ),
    Benchmark(
        name="campaign_fanout",
        description=(
            f"campaign plumbing: expand_names('all') + 64-artifact "
            f"aggregation, {_FANOUT_ROUNDS} rounds"
        ),
        setup=_fanout_setup,
        body=_fanout_body,
    ),
    Benchmark(
        name="exec_time_protocol",
        description=(
            "chunked execution-time protocol, fig12 shape: 2x povray "
            f"sharing core 0, {_EXEC_TIME_INSTRUCTIONS:g} instructions"
        ),
        setup=_exec_time_setup,
        body=_exec_time_body,
    ),
)


def benchmark_names() -> List[str]:
    """Benchmark names in canonical run order."""
    return [benchmark.name for benchmark in BENCHMARKS]


def benchmarks_named(names: List[str]) -> List[Benchmark]:
    """Resolve a user-supplied subset, preserving request order.

    Raises ``KeyError`` listing every unknown name at once.
    """
    by_name = {benchmark.name: benchmark for benchmark in BENCHMARKS}
    unknown = [name for name in names if name not in by_name]
    if unknown:
        raise KeyError(
            f"unknown benchmark(s): {', '.join(unknown)}; "
            f"known: {', '.join(benchmark_names())}"
        )
    return [by_name[name] for name in names]

"""Tests for the batched struct-of-arrays tick engine.

The engine has exactly one contract: every observable — truth metrics,
integer-carry state, per-tick metric dicts, virtualised PMC readings and
LLC occupancy trajectories — is bit-identical to the scalar reference
path (``tick_engine="scalar"``).  The property test drives random fleets
through both engines and compares full fingerprints for equality, not
approximation.

Also pins the multi-socket accounting bugfixes that shipped with the
engine: socket-correct frequency in ``truth_llc_cap``, memory-node
fallback in ``occupancy_of``, and pending context-switch penalties dying
with an idle core.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cachesim.perfmodel import CacheBehavior
from repro.core.ks4xen import KS4Xen
from repro.core.monitor import DirectPmcMonitor
from repro.hardware.latency import PAPER_LATENCIES
from repro.hardware.specs import MIB, MachineSpec, paper_machine
from repro.hypervisor.batch import BatchTickEngine
from repro.hypervisor.system import VirtualizedSystem
from repro.hypervisor.vm import VmConfig
from repro.partitioning.static import PartitionedLlcDomain, apply_page_coloring
from repro.partitioning.ucp import UcpController
from repro.pmc.counters import PmcEvent
from repro.schedulers.credit import CreditScheduler
from repro.workloads.base import Workload
from repro.workloads.profiles import application_workload

from conftest import hetero_machine, make_vm, socket_spec

ENGINES = ["scalar", "batch"]


def two_socket_machine() -> MachineSpec:
    socket = socket_spec(2_800_000)
    return MachineSpec(
        name="homog-2s",
        sockets=(socket, socket),
        memory_bytes=2 * 8_096 * MIB,
        latency=PAPER_LATENCIES,
    )


# -- the equivalence property -------------------------------------------------

behaviors = st.builds(
    CacheBehavior,
    wss_lines=st.floats(min_value=1, max_value=1e6),
    lapki=st.floats(min_value=0, max_value=100),
    base_cpi=st.floats(min_value=0.1, max_value=5),
    locality_theta=st.floats(min_value=0.1, max_value=4),
    stream_fraction=st.floats(min_value=0, max_value=1),
    mlp=st.floats(min_value=1, max_value=64),
)

vm_specs = st.lists(
    st.tuples(
        behaviors,
        st.sampled_from(["plain", "finite"]),
        st.integers(min_value=0, max_value=1),  # memory node
        st.booleans(),  # pinned?
    ),
    min_size=2,
    max_size=6,
)


def _workload(
    kind: str, index: int, behavior, finite_total: float = 3e7
) -> Workload:
    if kind == "finite":
        return Workload(
            name=f"w{index}", behavior=behavior, total_instructions=finite_total
        )
    return Workload(name=f"w{index}", behavior=behavior)


def _fingerprint(
    engine,
    specs,
    substeps,
    jitter,
    seed,
    ticks,
    color=False,
    cores=None,
    systems=None,
    ucp_period=None,
    **workload_options,
):
    """Run a fleet on ``engine`` and capture every observable, exactly.

    A pinned spec runs on ``cores[index]`` when ``cores`` is given, else
    on core ``index`` modulo the core count.  ``workload_options`` go to
    :func:`_workload`; the system is appended to ``systems`` if given.
    ``ucp_period`` attaches a :class:`UcpController` to socket 0 that
    swaps in a fresh partitioned domain every that many ticks.
    """
    system = VirtualizedSystem(
        CreditScheduler(),
        two_socket_machine(),
        substeps_per_tick=substeps,
        perf_jitter_fraction=jitter,
        seed=seed,
        tick_engine=engine,
    )
    vms = []
    total_cores = system.machine.spec.total_cores
    for index, (behavior, kind, node, pinned) in enumerate(specs):
        core = index % total_cores if cores is None else cores[index]
        vms.append(
            system.create_vm(
                VmConfig(
                    name=f"vm{index}",
                    workload=_workload(kind, index, behavior, **workload_options),
                    pinned_cores=[core] if pinned else None,
                    memory_node=node,
                )
            )
        )
    if systems is not None:
        systems.append(system)
    if color:
        apply_page_coloring(
            system, {vms[0]: 20_000.0, vms[1]: 30_000.0}
        )
    if ucp_period is not None:
        UcpController(system, socket_id=0, period_ticks=ucp_period)
    trail = []

    def observe(s, tick):
        trail.append(
            (
                dict(s.last_tick_cycles),
                dict(s.last_tick_instructions),
                dict(s.last_tick_misses),
                tuple(
                    tuple(sorted(d.snapshot().items()))
                    for d in s.llc_domains
                ),
            )
        )

    system.add_tick_observer(observe)
    system.run_ticks(ticks)
    final = []
    for vm in vms:
        for vcpu in vm.vcpus:
            system.perfctr.flush_running(vcpu.gid)
            account = system.perfctr.account(vcpu.gid)
            final.append(
                (
                    vcpu.cycles_run,
                    vcpu.instructions_retired,
                    vcpu.llc_accesses,
                    vcpu.llc_misses,
                    vcpu.progress.instructions_done,
                    vcpu.progress.finished_at_usec,
                    vcpu.batch_mirror(),
                    tuple(account.read(event) for event in PmcEvent),
                )
            )
    return trail, final


class TestEngineEquivalence:
    @settings(max_examples=12, deadline=None)
    @given(
        specs=vm_specs,
        substeps=st.sampled_from([4, 10]),
        jitter=st.sampled_from([0.0, 0.03]),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_batched_engines_bit_identical_to_scalar(
        self, specs, substeps, jitter, seed
    ):
        reference = _fingerprint("scalar", specs, substeps, jitter, seed, 40)
        for engine in ENGINES[1:]:
            assert (
                _fingerprint(engine, specs, substeps, jitter, seed, 40)
                == reference
            ), engine

    def test_footprint_capped_fleet_bit_identical(self):
        """Deterministic pin: a footprint cap far below the working set
        (which the generated behaviors never have) bounds each relax the
        same way on every engine."""
        big = CacheBehavior(wss_lines=120_000.0, lapki=25.0)
        small = CacheBehavior(
            wss_lines=120_000.0,
            lapki=25.0,
            pollution_footprint_lines=2_000.0,
        )
        specs = [
            (big, "plain", 0, True),
            (small, "plain", 1, True),
            (big, "plain", 0, False),
            (small, "finite", 1, False),
        ]
        reference = _fingerprint("scalar", specs, 10, 0.0, 7, 60)
        for engine in ENGINES[1:]:
            assert _fingerprint(engine, specs, 10, 0.0, 7, 60) == reference

    def test_page_colored_domains_bit_identical(self):
        """Colour-partitioned LLC domains go through the same
        relax/occupancy sequence on every engine."""
        a = CacheBehavior(wss_lines=90_000.0, lapki=30.0)
        b = CacheBehavior(wss_lines=50_000.0, lapki=15.0, stream_fraction=0.4)
        specs = [
            (a, "plain", 0, True),
            (b, "plain", 0, True),
            (a, "plain", 1, False),
        ]
        reference = _fingerprint(
            "scalar", specs, 10, 0.0, 3, 50, color=True
        )
        for engine in ENGINES[1:]:
            assert (
                _fingerprint(engine, specs, 10, 0.0, 3, 50, color=True)
                == reference
            )

    def test_ucp_domain_swaps_bit_identical(self, monkeypatch):
        """UCP replaces socket 0's domain every 7 ticks: the batch engine
        rebinds to each new domain, matches the scalar path exactly, and
        elides relaxations on it that the scalar path performs."""
        relax_calls = []
        relax = PartitionedLlcDomain.relax

        def counting_relax(domain, *args, **kwargs):
            relax_calls[-1] += 1
            return relax(domain, *args, **kwargs)

        monkeypatch.setattr(PartitionedLlcDomain, "relax", counting_relax)
        a, b, c = self.STEADY_A, self.STEADY_B, self.STEADY_C
        specs = [
            (a, "plain", 0, True),
            (b, "plain", 0, True),
            (c, "plain", 0, False),
            (a, "plain", 1, False),
        ]
        fingerprints = []
        for engine in ENGINES:
            relax_calls.append(0)
            fingerprints.append(
                _fingerprint(
                    engine, specs, 10, 0.0, 9, 50,
                    cores=[0, 1, 2, 4], ucp_period=7,
                )
            )
        assert fingerprints[1] == fingerprints[0]
        scalar_calls, batch_calls = relax_calls
        assert 0 < batch_calls < scalar_calls

    # -- steady-state fast-forward pins ---------------------------------
    #
    # Streaming behaviors keep enough miss pressure for the relaxation to
    # land exactly on its fixed point, so the machine turns steady within
    # a few ticks and the batched engines start fast-forwarding.

    STEADY_A = CacheBehavior(
        wss_lines=60_000.0, lapki=20.0, stream_fraction=0.3
    )
    STEADY_B = CacheBehavior(
        wss_lines=30_000.0, lapki=5.0, stream_fraction=0.2
    )
    STEADY_C = CacheBehavior(
        wss_lines=50_000.0, lapki=35.0, stream_fraction=0.1
    )

    @staticmethod
    def _assert_fast_forwarded_equivalence(specs, cores, **options):
        reference = _fingerprint(
            "scalar", specs, 10, 0.0, 7, 30, cores=cores, **options
        )
        for engine in ENGINES[1:]:
            systems = []
            assert (
                _fingerprint(
                    engine, specs, 10, 0.0, 7, 30,
                    cores=cores, systems=systems, **options,
                )
                == reference
            ), engine
            assert systems[0]._batch_engine.fast_forwarded_substeps > 0
        return reference

    def test_finite_finish_inside_fast_forward_window(self, monkeypatch):
        """A finite workload finishes inside the window a steady machine
        would otherwise fast-forward: the window stops short and the
        finishing step runs on the normal path."""
        windows = []
        fast_forward = BatchTickEngine._fast_forward

        def spy(engine, remaining):
            skipped = fast_forward(engine, remaining)
            windows.append((remaining, skipped))
            return skipped

        monkeypatch.setattr(BatchTickEngine, "_fast_forward", spy)
        a, b, c = self.STEADY_A, self.STEADY_B, self.STEADY_C
        specs = [
            (a, "plain", 0, True),
            (b, "finite", 0, True),
            (c, "plain", 1, True),
        ]
        _, final = self._assert_fast_forwarded_equivalence(
            specs, [0, 1, 4], finite_total=1.1e8
        )
        assert final[1][5] is not None  # the finite workload finished
        assert any(0 < skipped < remaining for remaining, skipped in windows)

    def test_rejects_unknown_engine(self):
        for engine in ("vectorised-maybe", "batch-numpy"):
            with pytest.raises(ValueError):
                VirtualizedSystem(CreditScheduler(), tick_engine=engine)


# -- churn equivalence --------------------------------------------------------

churn_ops = st.lists(
    st.one_of(
        st.tuples(st.just("run"), st.integers(min_value=1, max_value=5)),
        st.tuples(
            st.just("admit"),
            behaviors,
            st.sampled_from(["plain", "finite"]),
            st.integers(min_value=0, max_value=1),  # memory node
        ),
        st.tuples(st.just("retire"), st.integers(min_value=0, max_value=7)),
    ),
    min_size=5,
    max_size=16,
)


def _churn_fingerprint(engine, ops, seed):
    """Drive one admit/run/retire interleaving; capture every observable.

    Also asserts the churn invariants on every tick: the scheduler never
    dispatches a retired vCPU, and every LLC line is owned by a live gid
    (occupancy conservation — retirement flushed the rest).
    """
    system = VirtualizedSystem(
        CreditScheduler(),
        two_socket_machine(),
        seed=seed,
        tick_engine=engine,
    )
    trail = []
    retired_final = []

    def observe(s, tick):
        live_gids = {vcpu.gid for vcpu in s.vcpus}
        for core in s.machine.cores:
            if core.running is not None:
                assert core.running.gid in live_gids, (
                    f"retired gid {core.running.gid} dispatched on "
                    f"core {core.core_id}"
                )
        for domain in s.llc_domains:
            snap = domain.snapshot()
            held = sum(snap.values())
            assert held <= domain.total_lines * (1 + 1e-9)
            for gid, lines in snap.items():
                if lines > 0.0:
                    assert gid in live_gids, (
                        f"retired gid {gid} still owns {lines} LLC lines"
                    )
        trail.append(
            (
                dict(s.last_tick_cycles),
                dict(s.last_tick_instructions),
                dict(s.last_tick_misses),
                tuple(
                    tuple(sorted(d.snapshot().items()))
                    for d in s.llc_domains
                ),
            )
        )

    system.add_tick_observer(observe)
    admitted = 0
    for op in ops:
        if op[0] == "admit":
            _, behavior, kind, node = op
            admitted += 1
            system.admit_vm(
                VmConfig(
                    name=f"churn{admitted}",
                    workload=_workload(kind, admitted, behavior),
                    memory_node=node,
                )
            )
        elif op[0] == "retire":
            if system.vms:
                vm = system.vms[op[1] % len(system.vms)]
                vcpu = vm.vcpus[0]
                system.retire_vm(vm)
                retired_final.append(
                    (
                        vm.vm_id,
                        vcpu.gid,
                        vcpu.cycles_run,
                        vcpu.instructions_retired,
                        vcpu.llc_misses,
                        vcpu.progress.instructions_done,
                    )
                )
                for domain in system.llc_domains:
                    assert domain.occupancy_of(vcpu.gid) == 0.0
        else:
            system.run_ticks(op[1])
    final = []
    for vm in system.vms:
        for vcpu in vm.vcpus:
            system.perfctr.flush_running(vcpu.gid)
            account = system.perfctr.account(vcpu.gid)
            final.append(
                (
                    vcpu.gid,
                    vcpu.cycles_run,
                    vcpu.instructions_retired,
                    vcpu.llc_accesses,
                    vcpu.llc_misses,
                    vcpu.progress.instructions_done,
                    vcpu.batch_mirror(),
                    tuple(account.read(event) for event in PmcEvent),
                )
            )
    return trail, retired_final, final


class TestChurnEquivalence:
    @settings(max_examples=10, deadline=None)
    @given(
        ops=churn_ops,
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_engines_bit_identical_under_churn(self, ops, seed):
        """Random admit/retire interleavings leave all three engines
        bit-identical: the batched slot mirrors rebuild correctly after
        every fleet invalidation."""
        reference = _churn_fingerprint("scalar", ops, seed)
        for engine in ENGINES[1:]:
            assert _churn_fingerprint(engine, ops, seed) == reference, engine

    def test_admit_between_ticks_matches_cold_start(self):
        """Deterministic pin: a VM admitted after the batch engine primed
        produces the same trajectory on every engine."""
        behavior = CacheBehavior(wss_lines=80_000.0, lapki=20.0)
        late = CacheBehavior(wss_lines=40_000.0, lapki=8.0)
        ops = [
            ("admit", behavior, "plain", 0),
            ("run", 5),
            ("admit", late, "finite", 1),
            ("run", 5),
            ("retire", 0),
            ("run", 5),
        ]
        reference = _churn_fingerprint("scalar", ops, 11)
        for engine in ENGINES[1:]:
            assert _churn_fingerprint(engine, ops, 11) == reference, engine


# -- Kyoto under overcommit ----------------------------------------------------

#: 27 single-vCPU VMs on the 8-core two-socket machine: 3.4:1 overcommit.
#: Plain VMs run the calibrated polluters and victims; finite ones, of
#: lengths staggered by their index, finish mid-tick at different ticks
#: (clipped steps, then a vacate and a refill).
_OVERCOMMIT_FLEET = (
    [("plain", app) for app in ("lbm", "mcf", "gcc", "povray") * 3]
    + [("finite", app) for app in ("lbm", "gcc", "mcf", "povray", "bzip", "lbm")]
    + [("finite", app) for app in ("gcc", "lbm", "povray", "mcf", "bzip")]
    + [("plain", "bzip"), ("plain", "lbm"), ("plain", "mcf"), ("plain", "gcc")]
)


def _overcommit_workload(kind: str, index: int, app: str) -> Workload:
    if kind == "finite":
        return application_workload(app, total_instructions=2e7 + 3e6 * index)
    return application_workload(app)


def _kyoto_overcommit_fingerprint(engine, jitter, seed, ticks):
    """KS4Xen + DirectPmcMonitor at >3:1 overcommit; every observable.

    Occupants change every tick, so most slot-steps miss the step memo,
    and Kyoto samples the running vCPUs mid-quantum (``flush_running``)
    each monitoring period.
    """
    system = VirtualizedSystem(
        KS4Xen(),
        two_socket_machine(),
        perf_jitter_fraction=jitter,
        seed=seed,
        tick_engine=engine,
    )
    assert isinstance(system.scheduler.kyoto.monitor, DirectPmcMonitor)
    vms = [
        system.create_vm(
            VmConfig(
                name=f"vm{index}",
                workload=_overcommit_workload(kind, index, app),
                memory_node=index % 2,
                llc_cap=150_000,
            )
        )
        for index, (kind, app) in enumerate(_OVERCOMMIT_FLEET)
    ]
    kyoto = system.scheduler.kyoto
    trail = []

    def observe(s, tick):
        trail.append(
            (
                dict(s.last_tick_cycles),
                dict(s.last_tick_instructions),
                dict(s.last_tick_misses),
                tuple(
                    tuple(sorted(d.snapshot().items()))
                    for d in s.llc_domains
                ),
                tuple((kyoto.quota(vm), kyoto.punishments(vm)) for vm in vms),
            )
        )

    system.add_tick_observer(observe)
    system.run_ticks(ticks)
    final = []
    for vm in vms:
        vcpu = vm.vcpus[0]
        system.perfctr.flush_running(vcpu.gid)
        account = system.perfctr.account(vcpu.gid)
        pollution = kyoto.account_of(vm)
        final.append(
            (
                vcpu.cycles_run,
                vcpu.instructions_retired,
                vcpu.llc_misses,
                vcpu.progress.instructions_done,
                vcpu.progress.finished_at_usec,
                vcpu.batch_mirror(),
                tuple(account.read(event) for event in PmcEvent),
                tuple(account.last_sample),
                pollution.quota,
                pollution.punishments,
                pollution.samples,
                pollution.total_debited,
            )
        )
    return trail, final


class TestKyotoOvercommitEquivalence:
    @pytest.mark.parametrize("jitter", [0.0, 0.03])
    def test_ks4xen_overcommit_bit_identical(self, jitter):
        reference = _kyoto_overcommit_fingerprint("scalar", jitter, 5, 45)
        trail, final = reference
        # The case is not vacuous: Kyoto demoted someone, and every
        # finite workload finished, at several different ticks.
        assert any(row[9] for row in final)
        finished = [row[4] for row in final if row[4] is not None]
        assert len(finished) == sum(
            kind == "finite" for kind, _ in _OVERCOMMIT_FLEET
        )
        assert len(set(finished)) >= 5
        for engine in ENGINES[1:]:
            assert (
                _kyoto_overcommit_fingerprint(engine, jitter, 5, 45) == reference
            ), engine


# -- period-2 occupancy orbits -------------------------------------------------

#: One VM per core of the paper machine.  Their occupancies settle into an
#: exact two-sub-step cycle instead of a fixed point under XCS.
ORBIT_APPS = ("gcc", "povray", "lbm", "mcf")


def _orbit_fingerprint(
    engine,
    scheduler,
    ticks=40,
    totals=None,
    between=None,
    color=False,
    switch_cost=20_000,
    engines=None,
):
    """Run the orbit fleet; capture every observable, exactly.

    The trail records each domain's occupancy items in dict order, its
    ``_state_version`` and its used lines, so a replay must leave the
    domain as the relaxations it skipped would.  ``totals`` makes apps
    finite; ``between(system, tick, vms)`` runs after every tick;
    ``engines`` receives ``(tick, fast_forwarded, orbit)`` rows per tick
    on the batch engine.
    """
    system = VirtualizedSystem(
        scheduler,
        paper_machine(),
        context_switch_cost_cycles=switch_cost,
        tick_engine=engine,
    )
    vms = [
        system.create_vm(
            VmConfig(
                name=app,
                workload=application_workload(
                    app, total_instructions=(totals or {}).get(app)
                ),
                pinned_cores=[core],
                llc_cap=250_000,
            )
        )
        for core, app in enumerate(ORBIT_APPS)
    ]
    if color:
        apply_page_coloring(system, {vms[0]: 20_000.0, vms[1]: 30_000.0})
    trail = []

    def observe(s, tick):
        trail.append(
            (
                dict(s.last_tick_cycles),
                dict(s.last_tick_instructions),
                dict(s.last_tick_misses),
                tuple(
                    (
                        tuple(d._occupancy.items()),
                        d._state_version,
                        d.used_lines,
                    )
                    for d in s.llc_domains
                ),
            )
        )
        batch = s._batch_engine
        if engines is not None and batch is not None:
            engines.append(
                (tick, batch.fast_forwarded_substeps, batch.orbit_substeps)
            )
        if between is not None:
            between(s, tick, vms)

    system.add_tick_observer(observe)
    system.run_ticks(ticks)
    final = []
    for vm in vms:
        vcpu = vm.vcpus[0]
        system.perfctr.flush_running(vcpu.gid)
        account = system.perfctr.account(vcpu.gid)
        final.append(
            (
                vcpu.cycles_run,
                vcpu.instructions_retired,
                vcpu.llc_accesses,
                vcpu.llc_misses,
                vcpu.progress.instructions_done,
                vcpu.progress.finished_at_usec,
                vcpu.batch_mirror(),
                tuple(account.read(event) for event in PmcEvent),
            )
        )
    return trail, final


def _per_tick(rows):
    """Per-tick (fast-forwarded, orbit) sub-step counts from cumulative rows."""
    previous = (0, 0)
    counts = []
    for _, fast_forwarded, orbit in rows:
        counts.append(
            (fast_forwarded - previous[0], orbit - previous[1])
        )
        previous = (fast_forwarded, orbit)
    return counts


class TestPeriodTwoOrbit:
    @staticmethod
    def _equivalent(make_scheduler, **options):
        """scalar == batch on the orbit fleet; the batch per-tick counts."""
        reference = _orbit_fingerprint("scalar", make_scheduler(), **options)
        rows = []
        assert (
            _orbit_fingerprint("batch", make_scheduler(), engines=rows, **options)
            == reference
        )
        return reference, _per_tick(rows)

    def test_xcs_fleet_rides_the_orbit(self):
        """After warm-up the orbit carries across tick boundaries: every
        tick replays all but its first sub-step, an odd window, so each
        tick ends on the other phase's occupancy."""
        _, counts = self._equivalent(CreditScheduler)
        assert counts[-30:] == [(9, 9)] * 30

    def test_ks4xen_sampling_charge_keeps_fleet_off_the_orbit(self):
        """KS4Xen charges each sampled vCPU 2,000 cycles, so sub-step 1 is
        impure every tick and no orbit is sought in it; only the
        fixed-point path engages."""
        _, counts = self._equivalent(KS4Xen)
        assert sum(orbit for _, orbit in counts) == 0
        assert sum(fast_forwarded for fast_forwarded, _ in counts) > 0

    def test_finite_finish_inside_orbit_window(self, monkeypatch):
        """gcc finishes in tick 15 while the fleet is on the orbit: the
        window stops short, the finishing step runs on the normal path,
        and the three survivors settle on a fixed point."""
        windows = []
        fast_forward = BatchTickEngine._fast_forward

        def spy(engine, remaining):
            orbit = engine.orbit_substeps
            skipped = fast_forward(engine, remaining)
            windows.append((remaining, skipped, engine.orbit_substeps - orbit))
            return skipped

        monkeypatch.setattr(BatchTickEngine, "_fast_forward", spy)
        (_, final), counts = self._equivalent(
            CreditScheduler, totals={"gcc": 132.2e6}
        )
        assert final[0][5] == 150_000  # finished in tick 15
        assert (9, 4, 4) in windows
        assert counts[15] == (4, 4)
        assert counts[-10:] == [(9, 0)] * 10

    def test_flush_owner_between_ticks_breaks_the_orbit(self):
        """Flushing lbm's lines at the end of tick 20 moves the socket's
        state outside the engine: no replay may use the recorded orbit,
        and the fleet needs two ticks to find its way back."""

        def between(system, tick, vms):
            if tick == 20:
                system.llc_domains[0].flush_owner(vms[2].vcpus[0].gid)

        _, counts = self._equivalent(CreditScheduler, between=between)
        assert counts[20] == (9, 9)
        assert counts[21:23] == [(0, 0), (0, 0)]
        assert counts[-10:] == [(9, 9)] * 10

    def test_migrate_vcpu_between_ticks_breaks_the_orbit(self):
        """povray and lbm swap cores at the end of tick 20, with free
        context switches, so no penalty makes the next sub-step impure.
        The new occupants break the proof: the orbit is re-proven from
        sub-step 2, not carried from sub-step 1."""

        def between(system, tick, vms):
            if tick == 20:
                system.migrate_vcpu(vms[1].vcpus[0], 2)
                system.migrate_vcpu(vms[2].vcpus[0], 1)

        _, counts = self._equivalent(
            CreditScheduler, between=between, switch_cost=0
        )
        assert counts[20] == (9, 9)
        assert counts[21] == (8, 8)
        assert counts[-10:] == [(9, 9)] * 10

    def test_page_coloured_socket_stays_off_the_orbit(self):
        _, counts = self._equivalent(CreditScheduler, color=True)
        assert sum(orbit for _, orbit in counts) == 0


class TestReplayCarry:
    @settings(max_examples=200, deadline=None)
    @given(
        carry=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        phases=st.tuples(
            st.floats(min_value=0.0, max_value=1e9),
            st.floats(min_value=0.0, max_value=1e9),
        ),
        k=st.integers(min_value=1, max_value=10),
    )
    def test_mod_carry_equals_int_carry(self, carry, phases, k):
        """The replay's ``carry % 1.0`` with float-summed whole parts
        equals the inline tail's ``int()`` carry, bit for bit, for a
        non-negative carry and k alternating increments."""
        inline, inline_whole = carry, 0
        replay, replay_whole = carry, 0.0
        for value in (phases * k)[:k]:
            total = inline + value
            whole = int(total)
            inline = total - whole
            inline_whole += whole
            total = replay + value
            replay = total % 1.0
            replay_whole += total - replay
        assert replay.hex() == inline.hex()
        assert int(replay_whole) == inline_whole


# -- multi-socket accounting bugfixes -----------------------------------------

class TestSocketFrequencyAccounting:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_truth_llc_cap_uses_own_socket_frequency(self, engine):
        """Regression: cycles→ms conversion used socket 0's frequency no
        matter where the vCPU ran, halving/doubling misses/ms on
        heterogeneous machines."""
        system = VirtualizedSystem(
            CreditScheduler(), hetero_machine(), tick_engine=engine
        )
        slow_core = system.machine.spec.cores_of_socket(1)[0]
        vm = make_vm(system, app="lbm", core=slow_core, memory_node=1)
        system.run_ticks(10)
        vcpu = vm.vcpus[0]
        assert vcpu.llc_misses > 0
        slow_khz = system.machine.sockets[1].spec.freq_khz
        expected = vcpu.llc_misses / (vcpu.cycles_run / slow_khz)
        assert system.truth_llc_cap(vcpu) == expected
        # The two sockets genuinely disagree, so the old socket-0 math
        # would have produced a different rate.
        wrong = vcpu.llc_misses / (vcpu.cycles_run / system.freq_khz)
        assert system.truth_llc_cap(vcpu) != wrong

    def test_occupancy_of_unplaced_vcpu_reads_memory_node_socket(self):
        """Regression: a never-scheduled, unpinned vCPU homed on socket 1
        read socket 0's LLC domain."""
        system = VirtualizedSystem(CreditScheduler(), two_socket_machine())
        vm = system.create_vm(
            VmConfig(
                name="idle",
                workload=Workload(
                    name="w", behavior=CacheBehavior(wss_lines=1e5, lapki=10.0)
                ),
                memory_node=1,
            )
        )
        vcpu = vm.vcpus[0]
        assert vcpu.current_core is None and vcpu.pinned_core is None
        system.llc_domains[1].relax({vcpu.gid: 200.0}, {vcpu.gid: 5_000.0})
        assert system.llc_domains[0].occupancy_of(vcpu.gid) == 0.0
        expected = system.llc_domains[1].occupancy_of(vcpu.gid)
        assert expected > 0.0
        assert system.occupancy_of(vcpu) == expected


class TestPendingPenaltyIdleGap:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_penalty_cleared_when_core_goes_idle(self, engine):
        """Pinned semantics: a pending context-switch penalty dies with
        the occupant — switch→idle→switch must not charge the stale
        penalty to whoever lands on the core ticks later."""
        system = VirtualizedSystem(
            CreditScheduler(),
            ticks_per_slice=1,
            # Far larger than a slice's budget: the penalty cannot be
            # fully absorbed before the idle gap, so a leftover would be
            # observable after it.
            context_switch_cost_cycles=10**10,
            tick_engine=engine,
        )
        vm_a = make_vm(system, "a", app="gcc", core=0)
        vm_b = make_vm(system, "b", app="lbm", core=0)
        system.run_ticks(3)  # at least one preemption switch on core 0
        assert system._pending_penalty_cycles.get(0, 0) > 0
        # Park both: core 0 is observed idle during the next tick.
        vm_a.vcpus[0].paused = True
        vm_b.vcpus[0].paused = True
        system.run_ticks(1)
        assert system._pending_penalty_cycles.get(0, 0) == 0
        # The next occupant starts clean.  Its own switch-in charges one
        # fresh penalty, so after a tick of absorption the pending total
        # must sit strictly within one charge — a leaked stale penalty
        # would push it above 10**10.
        vm_b.vcpus[0].paused = False
        system.run_ticks(1)
        pending = system._pending_penalty_cycles.get(0, 0)
        assert 0 < pending <= 10**10 - system.cycles_per_tick(0) // 2

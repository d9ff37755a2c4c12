"""Tests for the deterministic fault-injection subsystem (repro.faults)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ks4xen import KS4Xen
from repro.core.monitor import DirectPmcMonitor, PollutionMonitor
from repro.core.resilient import ResilientMonitor
from repro.experiments import chaos
from repro.experiments.registry import REGISTRY, experiment_names
from repro.faults import (
    KNOWN_SITES,
    SITE_MIGRATION,
    SITE_MONITOR_EXCEPTION,
    SITE_PMC_READ,
    SITE_REPLAY_SLOW,
    SITE_REPLAY_STALE,
    SITE_REPLAY_UNAVAILABLE,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    FaultyMonitor,
    FaultyReplayService,
    InjectedMigrationError,
    MigrationFaultInjector,
    MonitorFault,
    ReplayTimeoutError,
    ReplayUnavailableError,
    uniform_plan,
)
from repro.hypervisor.system import VirtualizedSystem
from repro.mcsim.service import ReplayService
from repro.pmc.counters import COUNTER_MASK
from repro.schedulers.credit import CreditScheduler
from repro.simulation.rng import seeded_stream
from repro.telemetry import MetricsRecorder, recording

from conftest import make_vm


def plain_system():
    return VirtualizedSystem(CreditScheduler())


class StubMonitor(PollutionMonitor):
    """Deterministic inner monitor for injector tests."""

    name = "stub"

    def __init__(self, system, values=(100.0,)):
        super().__init__(system)
        self._values = list(values)
        self._index = 0

    def sample(self, vm):
        value = self._values[min(self._index, len(self._values) - 1)]
        self._index += 1
        return value


class TestFaultSpec:
    def test_unknown_site_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultSpec(site="not.a.site")

    def test_probability_range_enforced(self):
        with pytest.raises(FaultPlanError):
            FaultSpec(site=SITE_PMC_READ, probability=1.5)
        with pytest.raises(FaultPlanError):
            FaultSpec(site=SITE_PMC_READ, probability=-0.1)

    def test_burst_must_be_positive(self):
        with pytest.raises(FaultPlanError):
            FaultSpec(site=SITE_PMC_READ, burst=0)

    def test_window_must_be_ordered(self):
        with pytest.raises(FaultPlanError):
            FaultSpec(site=SITE_PMC_READ, windows=((5, 5),))
        with pytest.raises(FaultPlanError):
            FaultSpec(site=SITE_PMC_READ, windows=((-1, 5),))


class TestFaultPlan:
    def test_duplicate_site_rejected(self):
        specs = [FaultSpec(site=SITE_PMC_READ), FaultSpec(site=SITE_PMC_READ)]
        with pytest.raises(FaultPlanError):
            FaultPlan(specs)

    def test_probabilistic_plan_requires_rng(self):
        with pytest.raises(FaultPlanError):
            FaultPlan([FaultSpec(site=SITE_PMC_READ, probability=0.5)])

    def test_disabled_plan_never_fires(self):
        plan = FaultPlan.disabled()
        assert not plan.enabled
        assert not any(plan.should_fire(site, 0) for site in KNOWN_SITES)
        assert plan.injected_total() == 0
        assert plan.decisions == len(KNOWN_SITES)

    def test_zero_probability_plan_is_disabled(self):
        plan = uniform_plan(0.0, None)
        assert not plan.enabled
        assert not plan.should_fire(SITE_PMC_READ, 0)

    def test_scheduled_window_always_fires_half_open(self):
        plan = FaultPlan(
            [FaultSpec(site=SITE_MIGRATION, windows=((10, 12),))]
        )
        assert not plan.should_fire(SITE_MIGRATION, 9)
        assert plan.should_fire(SITE_MIGRATION, 10)
        assert plan.should_fire(SITE_MIGRATION, 11)
        assert not plan.should_fire(SITE_MIGRATION, 12)

    def test_probability_draws_are_deterministic(self):
        def decisions(seed):
            plan = uniform_plan(0.3, seeded_stream(seed))
            return [plan.should_fire(SITE_PMC_READ, t) for t in range(50)]

        assert decisions(7) == decisions(7)
        assert decisions(7) != decisions(8)

    def test_burst_keeps_firing_after_trigger(self):
        plan = FaultPlan(
            [FaultSpec(site=SITE_PMC_READ, probability=1.0, burst=3)],
            rng=seeded_stream(0),
        )
        fired = [plan.should_fire(SITE_PMC_READ, t) for t in range(3)]
        assert fired == [True, True, True]
        # The burst consumed two follow-up decisions without rng draws:
        # only one probabilistic trigger happened.
        assert plan.injected[SITE_PMC_READ] == 3

    def test_ledger_reconciles_with_recorder(self):
        recorder = MetricsRecorder()
        plan = uniform_plan(0.5, seeded_stream(3), recorder=recorder)
        for tick in range(40):
            for site in KNOWN_SITES:
                plan.should_fire(site, tick)
        assert plan.injected_total() > 0
        for site, count in plan.injected.items():
            assert recorder.counters[f"faults.injected.{site}"] == count

    def test_unknown_site_queries_rejected(self):
        plan = FaultPlan.disabled()
        with pytest.raises(FaultPlanError):
            plan.should_fire("bogus", 0)
        with pytest.raises(FaultPlanError):
            plan.spec_of("bogus")


class TestFaultyMonitor:
    def always(self, site):
        return FaultPlan([FaultSpec(site=site, probability=1.0)],
                         rng=seeded_stream(0))

    def test_exception_site_raises_monitor_fault(self):
        system = plain_system()
        vm = make_vm(system)
        monitor = FaultyMonitor(
            StubMonitor(system), self.always(SITE_MONITOR_EXCEPTION)
        )
        with pytest.raises(MonitorFault):
            monitor.sample(vm)

    def test_pmc_corruption_cycles_stale_wrapped_garbage(self):
        system = plain_system()
        vm = make_vm(system)
        monitor = FaultyMonitor(
            StubMonitor(system, values=(100.0,)), self.always(SITE_PMC_READ)
        )
        stale = monitor.sample(vm)
        assert stale == 0.0  # no previous good value yet
        wrapped = monitor.sample(vm)
        assert wrapped == float(COUNTER_MASK)
        garbage = monitor.sample(vm)
        assert math.isnan(garbage)

    def test_clean_samples_pass_through_and_feed_stale(self):
        system = plain_system()
        vm = make_vm(system)
        plan = FaultPlan(
            [FaultSpec(site=SITE_PMC_READ, windows=((5, 100),))]
        )
        monitor = FaultyMonitor(StubMonitor(system, values=(42.0,)), plan)
        assert monitor.sample(vm) == 42.0  # tick 0: clean
        system.run_ticks(6)
        assert monitor.sample(vm) == 42.0  # stale = last clean value


    def test_enforcement_survives_sample_loss(self):
        """Corrupting a third of the PMC reads behind the resilient
        monitor (the stack ``materialize`` builds) still punishes the
        polluter, spares the victim and never wedges."""
        scheduler = KS4Xen()
        system = VirtualizedSystem(scheduler)
        plan = FaultPlan(
            [FaultSpec(site=SITE_PMC_READ, probability=1 / 3)],
            rng=seeded_stream(3),
        )
        scheduler.kyoto.monitor = ResilientMonitor(
            system, [FaultyMonitor(DirectPmcMonitor(system), plan)]
        )
        sen = make_vm(system, "sen", app="gcc", core=0, llc_cap=250_000.0)
        dis = make_vm(system, "dis", app="lbm", core=1, llc_cap=250_000.0)
        system.run_ticks(150)
        assert plan.injected[SITE_PMC_READ] > 50
        assert scheduler.kyoto.punishments(dis) > 5
        assert scheduler.kyoto.punishments(sen) == 0


class TestFaultyReplayService:
    def _setup(self, site, **kwargs):
        system = plain_system()
        vm = make_vm(system, app="gcc")
        plan = FaultPlan([FaultSpec(site=site, probability=1.0)],
                         rng=seeded_stream(0))
        service = FaultyReplayService(ReplayService(), plan, system, **kwargs)
        return system, vm, service

    def test_unavailable_raises(self):
        __, vm, service = self._setup(SITE_REPLAY_UNAVAILABLE)
        with pytest.raises(ReplayUnavailableError):
            service.replay_vm(vm)

    def test_slow_past_deadline_times_out(self):
        __, vm, service = self._setup(
            SITE_REPLAY_SLOW, latency_ticks=3, deadline_ticks=1
        )
        with pytest.raises(ReplayTimeoutError):
            service.replay_vm(vm)

    def test_slow_within_deadline_still_answers(self):
        __, vm, service = self._setup(
            SITE_REPLAY_SLOW, latency_ticks=2, deadline_ticks=3
        )
        assert service.replay_vm(vm) is not None

    def test_stale_serves_cached_report_and_counts(self):
        __, vm, service = self._setup(SITE_REPLAY_STALE)
        first = service.replay_vm(vm)  # nothing cached yet: real replay
        assert service.stats.replays == 1
        again = service.replay_vm(vm)
        assert again is first
        assert service.stats.stale_hits == 1

    def test_validation(self):
        system = plain_system()
        with pytest.raises(ValueError):
            FaultyReplayService(
                ReplayService(), FaultPlan.disabled(), system, latency_ticks=0
            )
        with pytest.raises(ValueError):
            FaultyReplayService(
                ReplayService(), FaultPlan.disabled(), system, deadline_ticks=0
            )


class TestMigrationFaultInjector:
    def test_injected_failure_leaves_vcpu_in_place(self, numa):
        system = VirtualizedSystem(CreditScheduler(), numa)
        vm = make_vm(system, core=0)
        plan = FaultPlan(
            [FaultSpec(site=SITE_MIGRATION, probability=1.0)],
            rng=seeded_stream(0),
        )
        injector = MigrationFaultInjector(system, plan)
        vcpu = vm.vcpus[0]
        before = vcpu.current_core
        with pytest.raises(InjectedMigrationError):
            system.migrate_vcpu(vcpu, 4)
        assert vcpu.current_core == before
        assert plan.injected[SITE_MIGRATION] == 1
        injector.uninstall()
        system.migrate_vcpu(vcpu, 4)  # no interceptor: succeeds

    def test_uninstall_restores_previous_interceptor(self):
        system = plain_system()
        calls = []

        def previous(vcpu, core):
            calls.append(core)

        system.migration_interceptor = previous
        injector = MigrationFaultInjector(system, FaultPlan.disabled())
        vm = make_vm(system, core=0)
        system.migrate_vcpu(vm.vcpus[0], 1)
        assert calls == [1]  # chained through
        injector.uninstall()
        assert system.migration_interceptor is previous


class TestChaosExperiment:
    def test_registered_but_not_in_all(self):
        assert "chaos" in REGISTRY
        assert "chaos" not in experiment_names()

    def test_smoke_never_crashes_and_reports(self):
        result = chaos.run(warmup_ticks=5, measure_ticks=20)
        assert [p.rate for p in result.points] == list(chaos.FAILURE_RATES)
        assert all(p.completed for p in result.points)
        quota_floor = -chaos.CHAOS_QUOTA_MIN_FACTOR * chaos.PAPER_LLC_CAP
        assert all(p.min_quota >= quota_floor - 1e-6 for p in result.points)
        high = [p for p in result.points if p.rate >= 0.5]
        assert any(p.injected_total > 0 for p in high)
        report = chaos.format_report(result)
        assert "quota bank bound" in report
        assert "CRASH" not in report


def _fault_specs():
    """Strategy: a valid list of FaultSpecs over distinct sites."""
    def build(sites, probs, bursts):
        return [
            FaultSpec(site=site, probability=prob, burst=burst)
            for site, prob, burst in zip(sites, probs, bursts)
        ]

    sites = st.lists(
        st.sampled_from(KNOWN_SITES), min_size=1, max_size=len(KNOWN_SITES),
        unique=True,
    )
    return sites.flatmap(
        lambda s: st.builds(
            build,
            st.just(s),
            st.lists(
                st.floats(min_value=0.0, max_value=1.0),
                min_size=len(s), max_size=len(s),
            ),
            st.lists(
                st.integers(min_value=1, max_value=4),
                min_size=len(s), max_size=len(s),
            ),
        )
    )


class TestFaultPlanProperties:
    @settings(max_examples=20, deadline=None)
    @given(specs=_fault_specs(), seed=st.integers(min_value=0, max_value=2**16))
    def test_engine_survives_any_plan_with_bounded_quota(self, specs, seed):
        """Under *any* fault plan the engine completes, quota respects the
        bank bound, and the telemetry ledger reconciles."""
        recorder = MetricsRecorder()
        with recording(recorder):
            scheduler = KS4Xen(quota_min_factor=2.0)
            system = VirtualizedSystem(scheduler, recorder=recorder)
            plan = FaultPlan(
                specs, rng=seeded_stream(seed), recorder=recorder
            )
            engine = scheduler.kyoto
            engine.monitor = FaultyMonitor(DirectPmcMonitor(system), plan)
            vm = make_vm(
                system, name="victim", app="lbm", core=0, llc_cap=10_000.0
            )
            make_vm(system, name="bystander", app="gcc", core=1)
            system.run_ticks(30)  # completes without raising
            account = engine.account_of(vm)
            assert account is not None
            assert account.quota >= -2.0 * 10_000.0 - 1e-9
        for site, count in plan.injected.items():
            assert recorder.counters[f"faults.injected.{site}"] == count
        assert plan.injected_total() == sum(plan.injected.values())

"""Tests for the resilience layer: plausibility guard, circuit breaker,
failover chain, and the engine's graceful degradation on monitor failure."""

import math

import pytest

from repro.core.engine import KyotoEngine
from repro.core.equation import is_plausible_rate, max_plausible_rate
from repro.core.monitor import (
    MonitorError,
    PollutionMonitor,
    SocketDedicationMonitor,
    SocketDedicationSampler,
)
from repro.core.resilient import CircuitBreaker, ResilientMonitor
from repro.hypervisor.migration import PeriodicMigrator
from repro.hypervisor.system import HypervisorError, VirtualizedSystem
from repro.schedulers.credit import CreditScheduler
from repro.telemetry import MetricsRecorder

from conftest import hetero_machine, make_vm


def plain_system(**kwargs):
    return VirtualizedSystem(CreditScheduler(), **kwargs)


class ScriptedMonitor(PollutionMonitor):
    """Plays back a script of values; a MonitorError instance raises."""

    name = "scripted"

    def __init__(self, system, script):
        super().__init__(system)
        self.script = list(script)
        self.calls = 0

    def sample(self, vm):
        item = self.script[min(self.calls, len(self.script) - 1)]
        self.calls += 1
        if isinstance(item, MonitorError):
            raise item
        return item


class TestPlausibility:
    def test_ceiling_is_one_miss_per_cycle(self):
        assert max_plausible_rate(2_800_000) == 2_800_000.0
        assert max_plausible_rate(2_800_000, num_vcpus=2) == 5_600_000.0

    def test_ceiling_validation(self):
        with pytest.raises(ValueError):
            max_plausible_rate(0)
        with pytest.raises(ValueError):
            max_plausible_rate(2_800_000, num_vcpus=0)

    def test_rejects_non_finite_and_negative(self):
        assert not is_plausible_rate(float("nan"))
        assert not is_plausible_rate(float("inf"))
        assert not is_plausible_rate(-1.0)
        assert is_plausible_rate(0.0)

    def test_rejects_above_ceiling(self):
        assert is_plausible_rate(100.0, ceiling=2_800_000.0)
        assert not is_plausible_rate(2_800_001.0, ceiling=2_800_000.0)

    def test_rejects_spikes_relative_to_last_good(self):
        assert is_plausible_rate(400.0, last_good=100.0, spike_factor=50.0)
        assert not is_plausible_rate(
            5_001.0, last_good=100.0, spike_factor=50.0
        )

    def test_spike_guard_inactive_without_history(self):
        assert is_plausible_rate(1e6, last_good=None, spike_factor=50.0)
        assert is_plausible_rate(1e6, last_good=0.0, spike_factor=50.0)

    def test_spike_factor_validation(self):
        with pytest.raises(ValueError):
            is_plausible_rate(1.0, last_good=1.0, spike_factor=1.0)


class TestCircuitBreaker:
    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker("x", failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker("x", cooldown_ticks=0)
        with pytest.raises(ValueError):
            CircuitBreaker("x", cooldown_ticks=10, max_cooldown_ticks=5)

    def test_opens_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker("x", failure_threshold=3, cooldown_ticks=10)
        breaker.record_failure(0)
        breaker.record_failure(1)
        assert breaker.state == "closed"
        breaker.record_failure(2)
        assert breaker.state == "open"
        assert breaker.opens == 1
        assert not breaker.allow(3)
        assert breaker.allow(12)  # cooldown expired: half-open trial

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker("x", failure_threshold=2)
        breaker.record_failure(0)
        breaker.record_success(1)
        breaker.record_failure(2)
        assert breaker.state == "closed"

    def test_half_open_success_closes_and_resets_backoff(self):
        breaker = CircuitBreaker("x", failure_threshold=1, cooldown_ticks=10)
        breaker.record_failure(0)  # open until 10
        breaker.record_success(10)
        assert breaker.state == "closed"
        assert breaker.closes == 1
        breaker.record_failure(20)  # re-open: cooldown back at 10
        assert not breaker.allow(29)
        assert breaker.allow(30)

    def test_failed_trial_doubles_cooldown_up_to_cap(self):
        breaker = CircuitBreaker(
            "x", failure_threshold=1, cooldown_ticks=10, max_cooldown_ticks=30
        )
        breaker.record_failure(0)   # open until 10
        breaker.record_failure(10)  # failed trial: cooldown 20, until 30
        assert not breaker.allow(29)
        breaker.record_failure(30)  # cooldown 40 -> capped at 30, until 60
        assert not breaker.allow(59)
        assert breaker.allow(60)


class TestResilientMonitor:
    def test_needs_a_chain(self):
        with pytest.raises(ValueError):
            ResilientMonitor(plain_system(), chain=[])

    def test_first_member_success_short_circuits(self):
        system = plain_system()
        vm = make_vm(system)
        first = ScriptedMonitor(system, [100.0])
        second = ScriptedMonitor(system, [999.0])
        monitor = ResilientMonitor(system, chain=[first, second])
        assert monitor.sample(vm) == 100.0
        assert second.calls == 0
        assert monitor.estimate_of(vm) == 100.0

    def test_monitor_error_fails_over(self):
        system = plain_system()
        vm = make_vm(system)
        broken = ScriptedMonitor(system, [MonitorError("down")])
        backup = ScriptedMonitor(system, [70.0])
        monitor = ResilientMonitor(system, chain=[broken, backup], retries=1)
        assert monitor.sample(vm) == 70.0
        assert broken.calls == 2  # first attempt + one retry
        assert monitor.retries_performed == 1
        assert monitor.failovers == 1

    def test_implausible_values_rejected_in_favor_of_next_member(self):
        system = plain_system()
        vm = make_vm(system)
        liar = ScriptedMonitor(system, [float("nan")])
        honest = ScriptedMonitor(system, [50.0])
        monitor = ResilientMonitor(system, chain=[liar, honest])
        assert monitor.sample(vm) == 50.0
        assert monitor.rejected_samples == 1

    def test_ceiling_uses_own_socket_frequency(self):
        """Regression: the plausibility ceiling used socket 0's frequency,
        so a VM on a slower socket could report up to twice its physical
        maximum."""
        system = plain_system(machine_spec=hetero_machine())
        slow_core = system.machine.spec.cores_of_socket(1)[0]
        vm = make_vm(system, core=slow_core, memory_node=1)
        slow_ceiling = max_plausible_rate(system.machine.sockets[1].spec.freq_khz)
        fast_ceiling = max_plausible_rate(system.freq_khz)
        between = (slow_ceiling + fast_ceiling) / 2
        assert slow_ceiling < between < fast_ceiling
        liar = ScriptedMonitor(system, [between])
        backup = ScriptedMonitor(system, [80.0])
        monitor = ResilientMonitor(system, chain=[liar, backup])
        assert monitor.sample(vm) == 80.0
        assert monitor.rejected_samples == 1

    def test_spike_rejected_after_history_established(self):
        system = plain_system()
        vm = make_vm(system)
        spiky = ScriptedMonitor(system, [100.0, 100.0 * 60, 100.0])
        backup = ScriptedMonitor(system, [80.0])
        monitor = ResilientMonitor(
            system, chain=[spiky, backup], spike_factor=50.0
        )
        assert monitor.sample(vm) == 100.0
        assert monitor.sample(vm) == 80.0  # spike rejected, failover
        assert monitor.rejected_samples == 1

    def test_exhausted_chain_returns_ewma_never_raises(self):
        system = plain_system()
        vm = make_vm(system)
        good_then_dead = ScriptedMonitor(
            system, [100.0, 200.0, MonitorError("gone")]
        )
        monitor = ResilientMonitor(
            system, chain=[good_then_dead], retries=0, ewma_alpha=0.5
        )
        monitor.sample(vm)
        monitor.sample(vm)
        assert monitor.estimate_of(vm) == pytest.approx(150.0)
        assert monitor.sample(vm) == pytest.approx(150.0)
        assert monitor.last_good_fallbacks == 1

    def test_untrained_fallback_is_zero(self):
        system = plain_system()
        vm = make_vm(system)
        dead = ScriptedMonitor(system, [MonitorError("gone")])
        monitor = ResilientMonitor(system, chain=[dead], retries=0)
        assert monitor.sample(vm) == 0.0

    def test_open_breaker_skips_member(self):
        system = plain_system()
        vm = make_vm(system)
        dead = ScriptedMonitor(system, [MonitorError("gone")])
        backup = ScriptedMonitor(system, [10.0])
        monitor = ResilientMonitor(
            system,
            chain=[dead, backup],
            retries=0,
            breaker_threshold=2,
            breaker_cooldown_ticks=1_000,
        )
        monitor.sample(vm)
        monitor.sample(vm)  # second failure opens the breaker
        calls_before = dead.calls
        monitor.sample(vm)
        assert dead.calls == calls_before  # skipped, not retried
        assert monitor.breaker_skips == 1

    def test_counters_mirrored_to_recorder(self):
        recorder = MetricsRecorder()
        system = plain_system()
        vm = make_vm(system)
        dead = ScriptedMonitor(system, [MonitorError("gone")])
        backup = ScriptedMonitor(system, [10.0])
        monitor = ResilientMonitor(
            system, chain=[dead, backup], retries=1, recorder=recorder
        )
        monitor.sample(vm)
        assert recorder.counters["resilient.retries"] == 1
        assert recorder.counters["resilient.failovers"] == 1


class TestEngineDegradation:
    def test_monitor_error_debits_estimate_not_crash(self):
        system = plain_system()
        engine = KyotoEngine(
            system, monitor=ScriptedMonitor(system, [MonitorError("down")])
        )
        vm = make_vm(system, app="lbm", llc_cap=1_000.0)
        engine.register_vm(vm)
        system.run_ticks(1)
        engine.on_tick_end(0)  # must not raise
        assert engine.monitor_failures == 1
        assert engine.estimated_debits == 1
        assert engine.account_of(vm).total_debited == 0.0  # no history yet

    def test_garbage_sample_counts_implausible_and_uses_estimate(self):
        system = plain_system()
        engine = KyotoEngine(
            system,
            monitor=ScriptedMonitor(
                system, [100.0, float("nan"), -5.0]
            ),
            estimate_alpha=1.0,
        )
        vm = make_vm(system, app="lbm", llc_cap=1_000.0)
        engine.register_vm(vm)
        for tick in range(3):
            system.run_ticks(1)
            engine.on_tick_end(tick)
        assert engine.implausible_samples == 2
        assert engine.estimated_debits == 2
        # Two failed periods each debited the EWMA estimate (100.0).
        assert engine.account_of(vm).total_debited == pytest.approx(300.0)

    def test_quota_floor_bounds_punishment(self):
        system = plain_system()
        engine = KyotoEngine(
            system,
            monitor=ScriptedMonitor(system, [1e9]),
            quota_min_factor=2.0,
        )
        vm = make_vm(system, app="lbm", llc_cap=1_000.0)
        engine.register_vm(vm)
        system.run_ticks(1)
        engine.on_tick_end(0)
        assert engine.account_of(vm).quota == -2_000.0

    def test_estimate_alpha_validation(self):
        with pytest.raises(ValueError):
            KyotoEngine(plain_system(), estimate_alpha=0.0)


class TestSocketDedicationHardening:
    def _failing_interceptor(self, fail_on_call):
        calls = {"n": 0}

        def interceptor(vcpu, core_id):
            calls["n"] += 1
            if calls["n"] == fail_on_call:
                raise HypervisorError("injected migration refusal")

        return interceptor

    def test_mid_window_failure_restores_and_raises_monitor_error(self, numa):
        system = VirtualizedSystem(CreditScheduler(), numa)
        sampled = make_vm(system, name="sampled", app="gcc", core=0)
        other = make_vm(system, name="other", app="lbm", core=1)
        sampler = SocketDedicationSampler(system)
        # First migration (other -> spill) succeeds; the window then runs;
        # the restore migration fails, stranding the vCPU.
        system.migration_interceptor = self._failing_interceptor(2)
        value = sampler.sample(sampled, sample_ticks=1)
        assert value >= 0.0
        assert sampler.restore_failures == 1

    def test_outbound_failure_surfaces_as_monitor_error(self, numa):
        system = VirtualizedSystem(CreditScheduler(), numa)
        sampled = make_vm(system, name="sampled", app="gcc", core=0)
        make_vm(system, name="other", app="lbm", core=1)
        system.migration_interceptor = self._failing_interceptor(1)
        with pytest.raises(MonitorError):
            sampler = SocketDedicationSampler(system)
            sampler.sample(sampled, sample_ticks=1)

    def test_monitor_adapter_wraps_sampler(self, numa):
        system = VirtualizedSystem(CreditScheduler(), numa)
        vm = make_vm(system, app="lbm", core=0)
        monitor = SocketDedicationMonitor(system, sample_ticks=1)
        assert monitor.sample(vm) >= 0.0
        with pytest.raises(ValueError):
            SocketDedicationMonitor(system, sample_ticks=0)


class TestPeriodicMigratorHardening:
    def test_survives_migration_failures_and_counts_them(self, numa):
        system = VirtualizedSystem(CreditScheduler(), numa)
        vm = make_vm(system, core=0)
        migrator = PeriodicMigrator(
            system, vm.vcpus[0], home_core=0, remote_core=4, period_ticks=3
        )
        fail = {"active": True}

        def interceptor(vcpu, core_id):
            if fail["active"]:
                raise HypervisorError("injected")

        system.migration_interceptor = interceptor
        system.run_ticks(6)  # two outbound attempts, both refused
        assert migrator.migration_failures == 2
        assert migrator.migrations == 0
        assert vm.vcpus[0].current_core == 0
        fail["active"] = False
        system.run_ticks(6)  # recovery: migrations resume
        assert migrator.migrations > 0

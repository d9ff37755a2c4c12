"""Direct tests of the KyotoEngine (shared by all three scheduler ports)."""

import pytest

from repro.core.engine import KyotoEngine
from repro.core.monitor import DirectPmcMonitor
from repro.hypervisor.system import VirtualizedSystem
from repro.schedulers.credit import CreditScheduler

from conftest import make_vm


def plain_system():
    return VirtualizedSystem(CreditScheduler())


class TestRegistration:
    def test_register_managed_vm(self):
        system = plain_system()
        engine = KyotoEngine(system)
        vm = make_vm(system, llc_cap=100_000.0)
        account = engine.register_vm(vm)
        assert account is not None
        assert account.llc_cap == 100_000.0

    def test_register_unmanaged_vm_returns_none(self):
        system = plain_system()
        engine = KyotoEngine(system)
        vm = make_vm(system)
        assert engine.register_vm(vm) is None
        assert engine.account_of(vm) is None

    def test_register_idempotent(self):
        system = plain_system()
        engine = KyotoEngine(system)
        vm = make_vm(system, llc_cap=100_000.0)
        first = engine.register_vm(vm)
        first.debit(50.0)
        second = engine.register_vm(vm)
        assert second is first  # re-registration keeps state

    def test_invalid_period_rejected(self):
        with pytest.raises(ValueError):
            KyotoEngine(plain_system(), monitor_period_ticks=0)


class TestAccounting:
    def test_unmanaged_vm_never_parked(self):
        system = plain_system()
        engine = KyotoEngine(system)
        vm = make_vm(system)
        assert engine.is_parked(vm) is False
        assert engine.punishments(vm) == 0
        assert engine.quota(vm) is None

    def test_monitor_period_gating(self):
        system = plain_system()
        engine = KyotoEngine(system, monitor_period_ticks=3)
        vm = make_vm(system, app="lbm", llc_cap=1.0)
        engine.register_vm(vm)
        system.run_ticks(1)
        engine.on_tick_end(0)  # (0+1) % 3 != 0 -> no sample
        assert engine.account_of(vm).samples == 0
        engine.on_tick_end(2)  # (2+1) % 3 == 0 -> samples
        assert engine.account_of(vm).samples == 1

    def test_debit_scales_with_period(self):
        """Two engines at different periods must charge the same total
        pollution for the same execution."""
        def total_debited(period):
            system = plain_system()
            engine = KyotoEngine(system, monitor_period_ticks=period)
            vm = make_vm(system, app="lbm", llc_cap=1.0)
            engine.register_vm(vm)
            for tick in range(12):
                system.run_ticks(1)
                engine.on_tick_end(tick)
            return engine.account_of(vm).total_debited

        assert total_debited(3) == pytest.approx(total_debited(1), rel=0.1)

    def test_refill_restores_quota(self):
        system = plain_system()
        engine = KyotoEngine(system)
        vm = make_vm(system, llc_cap=100.0)
        account = engine.register_vm(vm)
        account.debit(500.0)
        assert engine.is_parked(vm)
        engine.on_accounting(0)  # one slice of refill: +300
        engine.on_accounting(1)
        assert not engine.is_parked(vm)

    def test_custom_monitor_used(self):
        class ConstantMonitor(DirectPmcMonitor):
            def sample(self, vm):
                return 42.0

        system = plain_system()
        engine = KyotoEngine(system, monitor=ConstantMonitor(system))
        vm = make_vm(system, app="lbm", llc_cap=1_000.0)
        engine.register_vm(vm)
        system.run_ticks(1)  # the VM must have executed to be sampled
        engine.on_tick_end(0)
        assert engine.account_of(vm).total_debited == 42.0

    def test_idle_periods_do_not_dilute_mean_measured(self):
        """A VM that sat out a monitoring period must not be sampled: idle
        periods used to contribute zero-rate samples that dragged
        mean_measured toward zero and under-punished bursty polluters."""

        from repro.telemetry import MetricsRecorder

        class ConstantMonitor(DirectPmcMonitor):
            def sample(self, vm):
                return 100.0

        recorder = MetricsRecorder()
        system = plain_system()
        engine = KyotoEngine(
            system, monitor=ConstantMonitor(system), recorder=recorder
        )
        vm = make_vm(system, app="lbm", llc_cap=1_000_000.0)
        engine.register_vm(vm)
        for tick in range(5):  # active half
            system.run_ticks(1)
            engine.on_tick_end(tick)
        for vcpu in vm.vcpus:  # idle half
            vcpu.paused = True
        for tick in range(5, 10):
            system.run_ticks(1)
            engine.on_tick_end(tick)
        account = engine.account_of(vm)
        assert account.samples == 5
        assert account.mean_measured == pytest.approx(100.0)
        assert recorder.counters["kyoto.idle_skips"] == 5.0


class TestPeriodConservation:
    """The once-per-period telemetry guard is observer-only: a recorder
    sees every sampled and skipped VM, and results do not depend on it."""

    TICKS = 45

    @staticmethod
    def _fleet(recorder):
        from repro.core.ks4xen import KS4Xen
        from repro.hardware.specs import paper_machine

        system = VirtualizedSystem(KS4Xen(), paper_machine(), recorder=recorder)
        # vdis and vmcf share core 1, so each sits out some periods.
        for name, app, core in (("vsen", "gcc", 0), ("vdis", "lbm", 1), ("vmcf", "mcf", 1)):
            make_vm(system, name, app=app, core=core, llc_cap=150_000)
        make_vm(system, "free", app="povray", core=2)  # unmanaged
        system.run_ticks(TestPeriodConservation.TICKS)
        return system.scheduler.kyoto

    def test_counters_conserve_periods_and_match_accounts(self):
        from repro.telemetry import MetricsRecorder

        recorder = MetricsRecorder()
        kyoto = self._fleet(recorder)
        counters = recorder.counters
        accounts = list(kyoto.accounts.values())
        assert len(accounts) == 3
        periods = self.TICKS // kyoto.monitor_period_ticks
        assert counters["kyoto.idle_skips"] > 0
        assert counters["kyoto.idle_skips"] + counters["kyoto.samples"] == (
            periods * len(accounts)
        )
        assert counters["kyoto.samples"] == sum(a.samples for a in accounts)
        assert counters["kyoto.punishments"] > 0
        assert counters["kyoto.punishments"] == sum(a.punishments for a in accounts)

    def test_null_recorder_leaves_accounts_bit_identical(self):
        from repro.telemetry import NULL_RECORDER, MetricsRecorder

        def state(kyoto):
            return [
                (vm_id, a.quota, a.punishments, a.samples, a.total_debited)
                for vm_id, a in kyoto.accounts.items()
            ]

        assert state(self._fleet(MetricsRecorder())) == state(self._fleet(NULL_RECORDER))

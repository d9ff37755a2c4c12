"""Runtime invariant-contract tests.

Contracts default to *on* under pytest, so these tests double-check both
the toggling logic and that the wired-in invariants actually trip when a
component misbehaves.
"""

from __future__ import annotations

import pytest

from repro.core.engine import KyotoEngine
from repro.core.monitor import PollutionMonitor
from repro.core.pollution import PollutionAccount
from repro.hardware.specs import paper_machine
from repro.hypervisor.system import VirtualizedSystem
from repro.hypervisor.vm import VmConfig
from repro import contracts
from repro.contracts import (
    ContractViolation,
    InvariantChecker,
    check,
    contracts_enabled,
    invariant,
    set_contracts_enabled,
)
from repro.cachesim.occupancy import LlcOccupancyDomain
from repro.schedulers.credit import CreditScheduler
from repro.workloads.profiles import application_workload


@pytest.fixture(autouse=True)
def _restore_contract_toggle():
    yield
    set_contracts_enabled(None)


def test_contracts_enabled_under_pytest():
    assert contracts_enabled()


def test_env_var_override(monkeypatch):
    monkeypatch.setenv("KYOTO_CONTRACTS", "0")
    assert not contracts_enabled()
    monkeypatch.setenv("KYOTO_CONTRACTS", "1")
    assert contracts_enabled()


@pytest.mark.parametrize(
    "value, enabled",
    [
        ("0", False),
        ("", False),
        (" ", False),
        ("false", False),
        ("FALSE", False),
        ("False", False),
        ("no", False),
        ("No", False),
        ("off", False),
        ("Off", False),
        (" OFF ", False),
        ("1", True),
        ("true", True),
        ("TRUE", True),
        ("yes", True),
        ("On", True),
    ],
)
def test_env_var_parsing_ignores_case_and_whitespace(monkeypatch, value, enabled):
    monkeypatch.setenv("KYOTO_CONTRACTS", value)
    assert contracts_enabled() is enabled


def test_programmatic_override_wins(monkeypatch):
    monkeypatch.setenv("KYOTO_CONTRACTS", "1")
    set_contracts_enabled(False)
    assert not contracts_enabled()
    check(False, "never-raises-when-disabled")


def test_check_raises_with_name_and_detail():
    with pytest.raises(ContractViolation) as excinfo:
        check(False, "occupancy-conservation", "1.5 shares")
    assert "occupancy-conservation" in str(excinfo.value)
    assert "1.5 shares" in str(excinfo.value)


def test_invariant_checker_counts_evaluations():
    checker = InvariantChecker("Thing")
    checker.require(True, "holds")
    checker.require(True, "holds")
    assert checker.evaluated("holds") == 2
    with pytest.raises(ContractViolation) as excinfo:
        checker.require(False, "breaks", "detail")
    assert "Thing.breaks" in str(excinfo.value)
    assert checker.violations == [("breaks", "detail")]


def test_invariant_decorator_postcondition():
    class Tank:
        def __init__(self):
            self.level = 0

        @invariant(lambda self: self.level <= 10, name="level-cap")
        def fill(self, amount):
            self.level += amount
            return self.level

    tank = Tank()
    assert tank.fill(5) == 5
    with pytest.raises(ContractViolation, match="level-cap"):
        tank.fill(50)


def test_invariant_decorator_disabled_is_free():
    set_contracts_enabled(False)

    class Tank:
        def __init__(self):
            self.level = 0

        @invariant(lambda self: self.level <= 10, name="level-cap")
        def fill(self, amount):
            self.level += amount

    tank = Tank()
    tank.fill(50)  # no raise when contracts are off
    assert tank.level == 50


def _count_toggle_lookups(monkeypatch):
    """Route the module's ``contracts_enabled`` through a call counter."""
    calls = []
    real = contracts.contracts_enabled

    def counting():
        calls.append(1)
        return real()

    monkeypatch.setattr(contracts, "contracts_enabled", counting)
    return calls


def test_invariant_decorator_holding_predicate_skips_toggle(monkeypatch):
    calls = _count_toggle_lookups(monkeypatch)

    class Tank:
        def __init__(self):
            self.level = 0

        @invariant(lambda self: self.level <= 10, name="level-cap")
        def fill(self, amount):
            self.level += amount

    tank = Tank()
    for _ in range(5):
        tank.fill(1)
    account = PollutionAccount(llc_cap=1000.0)
    account.debit(5000.0)
    account.refill(ticks=3)
    assert calls == []


@pytest.mark.parametrize("enabled", [True, False])
def test_invariant_decorator_failing_predicate_raises_only_when_enabled(
    monkeypatch, enabled
):
    calls = _count_toggle_lookups(monkeypatch)
    set_contracts_enabled(enabled)

    class Tank:
        def __init__(self):
            self.level = 0

        @invariant(lambda self: self.level <= 10, name="level-cap")
        def fill(self, amount):
            self.level += amount

    tank = Tank()
    if enabled:
        with pytest.raises(ContractViolation, match="level-cap"):
            tank.fill(50)
    else:
        tank.fill(50)
    assert tank.level == 50  # the method ran before the check either way
    assert len(calls) == 1  # the toggle is read once, on the violation


# -- wired-in invariants ------------------------------------------------------


class _NegativeMonitor(PollutionMonitor):
    """A broken monitor that attributes negative pollution."""

    name = "negative"

    def sample(self, vm):
        return -1.0


def _system_with_vm():
    system = VirtualizedSystem(CreditScheduler(), paper_machine())
    vm = system.create_vm(
        VmConfig(
            name="vm",
            workload=application_workload("gcc"),
            pinned_cores=[0],
            llc_cap=100_000,
        )
    )
    return system, vm


def test_kyoto_engine_absorbs_negative_sample():
    # The engine degrades to its EWMA estimate instead of crashing on a
    # lying monitor (docs/faults.md); the non-negative-sample contract
    # still guards the sanitised value it debits.
    system, vm = _system_with_vm()
    engine = KyotoEngine(system, monitor=_NegativeMonitor(system))
    engine.register_vm(vm)
    system.run_ticks(1)  # only VMs that executed in the period are sampled
    engine.on_tick_end(0)  # must not raise
    assert engine.implausible_samples == 1
    assert engine.estimated_debits == 1
    assert engine.invariants.evaluated("non-negative-sample") == 1


def test_kyoto_engine_quota_cap_invariant_runs():
    system, vm = _system_with_vm()
    engine = KyotoEngine(system)
    engine.register_vm(vm)
    engine.on_accounting(0)
    assert engine.invariants.evaluated("quota-cap") == 1


def test_kyoto_engine_contract_details_built_on_violation():
    # The detail strings are formatted only when a check fails; a failing
    # check must still carry them.
    system, vm = _system_with_vm()
    engine = KyotoEngine(system)
    engine.register_vm(vm)
    account = engine.accounts[vm.vm_id]
    account.refill = lambda ticks: None
    account.quota = account.quota_max * 2.0
    with pytest.raises(ContractViolation, match="exceeds cap"):
        engine.on_accounting(0)
    engine._sample_or_estimate = lambda vm: -1.0
    system.run_ticks(1)
    with pytest.raises(ContractViolation, match=f"returned -1.0 for {vm.name}"):
        engine.on_tick_end(0)


def test_pollution_account_refill_invariant():
    account = PollutionAccount(llc_cap=1000.0)
    account.refill(ticks=100)  # saturates at quota_max, must not raise
    assert account.quota == account.quota_max
    # NaN corruption sails through min()-clamping; the contract catches it.
    account.llc_cap = float("nan")
    with pytest.raises(ContractViolation, match="quota-cap"):
        account.refill(ticks=1)


def test_occupancy_conservation_contract_trips_on_corruption():
    domain = LlcOccupancyDomain(total_lines=100)
    domain.insert(owner=1, n_lines=50.0)
    # Corrupt the internal state beyond capacity, then mutate again.
    domain._occupancy[2] = 500.0
    with pytest.raises(ContractViolation, match="occupancy-conservation"):
        domain.insert(owner=1, n_lines=1.0)


def test_full_simulation_run_passes_contracts():
    """A normal Kyoto run end-to-end with contracts force-enabled."""
    set_contracts_enabled(True)
    from repro.core.ks4xen import KS4Xen

    system = VirtualizedSystem(KS4Xen(), paper_machine())
    system.create_vm(
        VmConfig(
            name="vsen",
            workload=application_workload("gcc"),
            pinned_cores=[0],
            llc_cap=250_000,
        )
    )
    system.create_vm(
        VmConfig(
            name="vdis",
            workload=application_workload("lbm"),
            pinned_cores=[1],
            llc_cap=250_000,
        )
    )
    system.run_msec(200)
    kyoto = system.scheduler.kyoto
    assert kyoto.invariants.evaluated("quota-cap") > 0
    assert not kyoto.invariants.violations


def _short_ks4xen_run():
    from repro.core.ks4xen import KS4Xen

    system = VirtualizedSystem(KS4Xen(), paper_machine())
    for name, app, core in (("vsen", "gcc", 0), ("vdis", "lbm", 1), ("vmcf", "mcf", 1)):
        system.create_vm(
            VmConfig(
                name=name,
                workload=application_workload(app),
                pinned_cores=[core],
                llc_cap=250_000,
            )
        )
    system.run_ticks(30)
    return system.scheduler.kyoto


@pytest.mark.parametrize("enabled", [True, False])
def test_kyoto_period_contract_counts_pinned(enabled):
    """The Kyoto period resolves ``contracts_enabled()`` once per period;
    that must change its cost, not its coverage.  Over 30 ticks, vsen and
    one of vdis/vmcf (which share core 1) run each tick, and 10 slices
    refill three accounts."""
    set_contracts_enabled(enabled)
    kyoto = _short_ks4xen_run()
    expected_samples, expected_refills = (60, 30) if enabled else (0, 0)
    assert kyoto.invariants.evaluated("non-negative-sample") == expected_samples
    assert kyoto.invariants.evaluated("quota-cap") == expected_refills
    assert sum(account.samples for account in kyoto.accounts.values()) == 60

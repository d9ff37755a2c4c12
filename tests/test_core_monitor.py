"""Tests for the Kyoto monitoring strategies."""

import pytest

from repro.core.monitor import (
    DirectPmcMonitor,
    IsolationPolicy,
    McSimReplayMonitor,
    SocketDedicationSampler,
)
from repro.hardware.specs import numa_machine, paper_machine
from repro.hypervisor.system import VirtualizedSystem
from repro.mcsim.replay import ReplayReport
from repro.mcsim.service import ReplayService
from repro.pmc.counters import PmcEvent
from repro.schedulers.credit import CreditScheduler
from repro.workloads.profiles import application_behavior

from conftest import hetero_machine, make_vm


def system_on(machine=None):
    return VirtualizedSystem(
        CreditScheduler(), machine if machine is not None else paper_machine()
    )


class TestDirectPmcMonitor:
    def test_measures_solo_rate(self):
        system = system_on()
        vm = make_vm(system, app="lbm")
        monitor = DirectPmcMonitor(system)
        system.run_ticks(30)
        monitor.sample(vm)  # reset window
        system.run_ticks(10)
        rate = monitor.sample(vm)
        assert rate == pytest.approx(420_000, rel=0.15)

    def test_idle_vm_measures_zero(self):
        system = system_on()
        vm = make_vm(system)
        monitor = DirectPmcMonitor(system)
        assert monitor.sample(vm) == 0.0

    def test_contended_measurement_inflated(self):
        """The attribution problem: a sensitive VM's measured rate under
        contention overstates its intrinsic pollution."""

        def measured(colocated):
            system = system_on()
            vm = make_vm(system, "gcc", app="gcc", core=0)
            if colocated:
                make_vm(system, "dis", app="lbm", core=1)
            monitor = DirectPmcMonitor(system)
            system.run_ticks(30)
            monitor.sample(vm)
            system.run_ticks(20)
            return monitor.sample(vm)

        assert measured(True) > measured(False) * 1.02

    def test_scales_with_vcpus(self):
        from repro.hypervisor.vm import VmConfig
        from repro.workloads.profiles import application_workload

        system = system_on()
        vm = system.create_vm(
            VmConfig(
                name="smp",
                workload=application_workload("gcc"),
                num_vcpus=2,
                pinned_cores=[0, 1],
            )
        )
        monitor = DirectPmcMonitor(system)
        system.run_ticks(20)
        monitor.sample(vm)
        system.run_ticks(10)
        two_vcpu_rate = monitor.sample(vm)
        assert two_vcpu_rate > 0

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            DirectPmcMonitor(system_on(), sampling_cost_cycles=-1)


class TestSocketDedication:
    def test_needs_two_sockets(self):
        with pytest.raises(ValueError):
            SocketDedicationSampler(system_on())

    def test_isolated_sample_close_to_intrinsic(self):
        system = system_on(numa_machine())
        vm = make_vm(system, "bzip", app="bzip", core=0)
        make_vm(system, "dis1", app="lbm", core=1)
        make_vm(system, "dis2", app="blockie", core=2)
        system.run_ticks(30)
        sampler = SocketDedicationSampler(system)
        isolated = sampler.sample(vm, sample_ticks=6)
        # bzip solo equation-1 rate is ~20k.
        assert isolated == pytest.approx(20_000, rel=0.4)

    def test_contended_sample_diverges(self):
        system = system_on(numa_machine())
        vm = make_vm(system, "bzip", app="bzip", core=0)
        make_vm(system, "dis1", app="lbm", core=1)
        make_vm(system, "dis2", app="blockie", core=2)
        system.run_ticks(30)
        sampler = SocketDedicationSampler(system)
        contended = sampler._contended_sample(vm, 6)
        isolated = sampler.sample(vm, sample_ticks=6)
        assert contended > isolated * 1.5

    def test_migrations_are_restored(self):
        system = system_on(numa_machine())
        vm = make_vm(system, "bzip", app="bzip", core=0)
        dis = make_vm(system, "dis1", app="lbm", core=1)
        system.run_ticks(10)
        sampler = SocketDedicationSampler(system)
        sampler.sample(vm, sample_ticks=3)
        assert dis.vcpus[0].pinned_core == 1
        assert sampler.migrations_performed == 2  # out and back

    def test_invalid_sample_ticks(self):
        system = system_on(numa_machine())
        vm = make_vm(system, core=0)
        sampler = SocketDedicationSampler(system)
        with pytest.raises(ValueError):
            sampler.sample(vm, sample_ticks=0)


class TestIsolationPolicy:
    def test_quiet_vcpu_needs_no_isolation(self):
        system = system_on(numa_machine())
        vm = make_vm(system, "hmmer", app="hmmer", core=0)
        make_vm(system, "dis", app="lbm", core=1)
        system.run_ticks(10)
        policy = IsolationPolicy(system)
        assert policy.should_isolate(vm) is False

    def test_quiet_corunners_need_no_isolation(self):
        system = system_on(numa_machine())
        vm = make_vm(system, "bzip", app="bzip", core=0)
        make_vm(system, "quiet", app="hmmer", core=1)
        system.run_ticks(10)
        policy = IsolationPolicy(system)
        assert policy.should_isolate(vm) is False

    def test_noisy_corunners_require_isolation(self):
        system = system_on(numa_machine())
        vm = make_vm(system, "bzip", app="bzip", core=0)
        make_vm(system, "dis", app="lbm", core=1)
        system.run_ticks(10)
        policy = IsolationPolicy(system)
        assert policy.should_isolate(vm) is True

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            IsolationPolicy(system_on(), low_pollution_threshold=-1)

    def test_sampler_honours_policy(self):
        system = system_on(numa_machine())
        vm = make_vm(system, "hmmer", app="hmmer", core=0)
        make_vm(system, "dis", app="lbm", core=1)
        system.run_ticks(10)
        sampler = SocketDedicationSampler(
            system, isolation_policy=IsolationPolicy(system)
        )
        sampler.sample(vm, sample_ticks=3)
        assert sampler.migrations_performed == 0


class TestMcSimReplayMonitor:
    def test_immune_to_contention_contamination(self):
        """The key property of the replay path: unlike the direct PMC
        measurement, its estimate barely moves when disruptors join —
        the miss *ratio* comes from the isolated replay, not from the
        contended shared LLC."""

        def measure(monitor_factory, colocated):
            system = system_on()
            vm = make_vm(system, "bzip", app="bzip", core=0)
            if colocated:
                make_vm(system, "dis1", app="lbm", core=1)
                make_vm(system, "dis2", app="blockie", core=2)
            monitor = monitor_factory(system)
            system.run_ticks(30)
            monitor.sample(vm)
            system.run_ticks(10)
            return monitor.sample(vm)

        def replay_factory(s):
            return McSimReplayMonitor(s, ReplayService())
        replay_inflation = measure(replay_factory, True) / measure(
            replay_factory, False
        )
        direct_inflation = measure(DirectPmcMonitor, True) / measure(
            DirectPmcMonitor, False
        )
        assert direct_inflation > 1.5  # contamination is real
        assert replay_inflation < 1.2  # and the replay path avoids it

    def test_idle_vm_measures_zero(self):
        system = system_on()
        vm = make_vm(system)
        monitor = McSimReplayMonitor(system, ReplayService())
        assert monitor.sample(vm) == 0.0

    def test_no_production_machine_perturbation(self):
        """Replay happens off-host: the measured VM's progress must not
        depend on how often the replay service is consulted."""

        def run(with_monitor):
            system = system_on()
            vm = make_vm(system, app="gcc")
            monitor = McSimReplayMonitor(system, ReplayService())
            for _ in range(20):
                system.run_ticks(1)
                if with_monitor:
                    monitor.sample(vm)
            return vm.instructions_retired

        assert run(True) == pytest.approx(run(False), rel=1e-6)

    def test_rate_uses_own_socket_frequency(self):
        """Regression: cycles were converted to milliseconds with socket
        0's frequency wherever the VM ran."""

        class StubReplayService:
            def replay_vm(self, vm):
                # 7 misses per kilo-instruction.
                return ReplayReport(
                    instructions=1000, cycles=2000.0, llc_accesses=50, llc_misses=7
                )

        system = system_on(hetero_machine())
        slow_core = system.machine.spec.cores_of_socket(1)[0]
        vm = make_vm(system, app="lbm", core=slow_core, memory_node=1)
        monitor = McSimReplayMonitor(system, StubReplayService())
        system.run_ticks(10)
        gid = vm.vcpus[0].gid
        system.perfctr.flush_running(gid)
        account = system.perfctr.account(gid)
        instructions = account.read(PmcEvent.INSTRUCTIONS_RETIRED)
        cycles = account.read(PmcEvent.UNHALTED_CORE_CYCLES)
        assert cycles > 0

        def rate_at(freq_khz):
            return instructions / (cycles / freq_khz) * 7.0 / 1000.0

        slow_khz = system.machine.sockets[1].spec.freq_khz
        measured = monitor.sample(vm)
        assert measured == rate_at(slow_khz)
        assert measured != rate_at(system.freq_khz)

"""Tests for the virtualized system (hypervisor + machine simulation)."""

import pytest

from repro.hardware.specs import numa_machine
from repro.hypervisor.system import HypervisorError, VirtualizedSystem
from repro.hypervisor.vm import VmConfig
from repro.pmc.counters import PmcEvent
from repro.schedulers.cfs import CfsScheduler
from repro.schedulers.credit import CreditScheduler
from repro.schedulers.rtds import RtdsScheduler
from repro.workloads.profiles import application_workload

from conftest import make_vm


class TestVmLifecycle:
    def test_create_vm_assigns_ids(self, xcs_system):
        vm_a = make_vm(xcs_system, "a", core=0)
        vm_b = make_vm(xcs_system, "b", core=1)
        assert vm_a.vm_id == 0
        assert vm_b.vm_id == 1
        assert vm_a.vcpus[0].gid != vm_b.vcpus[0].gid

    def test_vm_by_name(self, xcs_system):
        make_vm(xcs_system, "target", core=0)
        assert xcs_system.vm_by_name("target").name == "target"

    def test_vm_by_name_missing(self, xcs_system):
        with pytest.raises(HypervisorError):
            xcs_system.vm_by_name("ghost")

    def test_invalid_pinning_rejected(self, xcs_system):
        with pytest.raises(ValueError):
            make_vm(xcs_system, "bad", core=99)

    def test_multi_vcpu_vm(self, xcs_system):
        vm = xcs_system.create_vm(
            VmConfig(
                name="smp",
                workload=application_workload("gcc"),
                num_vcpus=2,
                pinned_cores=[0, 1],
            )
        )
        assert len(vm.vcpus) == 2
        assert [v.index for v in vm.vcpus] == [0, 1]

    def test_unpinned_vcpus_balanced(self, xcs_system):
        for i in range(4):
            xcs_system.create_vm(
                VmConfig(name=f"u{i}", workload=application_workload("gcc"))
            )
        cores = [
            xcs_system.scheduler.assigned_core[vm.vcpus[0].gid]
            for vm in xcs_system.vms
        ]
        assert sorted(cores) == [0, 1, 2, 3]


class TestExecution:
    def test_vm_makes_progress(self, xcs_system):
        vm = make_vm(xcs_system)
        xcs_system.run_ticks(5)
        assert vm.instructions_retired > 0
        assert vm.cycles_run > 0

    def test_idle_machine_runs(self, xcs_system):
        xcs_system.run_ticks(3)
        assert xcs_system.tick_index == 3

    def test_negative_ticks_rejected(self, xcs_system):
        with pytest.raises(ValueError):
            xcs_system.run_ticks(-1)

    def test_run_msec(self, xcs_system):
        xcs_system.run_msec(50)
        assert xcs_system.tick_index == 5

    def test_clock_advances_with_ticks(self, xcs_system):
        xcs_system.run_ticks(2)
        assert xcs_system.now_usec == 2 * xcs_system.tick_usec

    def test_pmcs_track_execution(self, xcs_system):
        vm = make_vm(xcs_system)
        xcs_system.run_ticks(3)
        deltas = xcs_system.perfctr.sample(vm.vcpus[0].gid)
        assert deltas[PmcEvent.UNHALTED_CORE_CYCLES] > 0
        assert deltas[PmcEvent.INSTRUCTIONS_RETIRED] > 0

    def test_pmc_misses_match_truth_approximately(self, xcs_system):
        vm = make_vm(xcs_system, app="lbm")
        xcs_system.run_ticks(5)
        deltas = xcs_system.perfctr.sample(vm.vcpus[0].gid)
        truth = vm.vcpus[0].llc_misses
        # Integer carry: PMC within one count of the truth accumulator.
        assert deltas[PmcEvent.LLC_MISSES] == pytest.approx(truth, abs=1.5)

    def test_ipc_reasonable(self, xcs_system):
        vm = make_vm(xcs_system, app="povray")
        xcs_system.run_ticks(5)
        assert 1.5 < vm.ipc < 3.0

    def test_two_vms_contend_on_llc(self, xcs_system):
        victim = make_vm(xcs_system, "victim", app="omnetpp", core=0)
        xcs_system.run_ticks(40)
        solo_misses = xcs_system.last_tick_misses[victim.vcpus[0].gid]

        contended = VirtualizedSystem(CreditScheduler())
        victim2 = make_vm(contended, "victim", app="omnetpp", core=0)
        make_vm(contended, "aggressor", app="lbm", core=1)
        contended.run_ticks(40)
        contended_misses = contended.last_tick_misses[victim2.vcpus[0].gid]
        assert contended_misses > 2 * solo_misses

    def test_finite_workload_completes(self, xcs_system):
        vm = xcs_system.create_vm(
            VmConfig(
                name="finite",
                workload=application_workload("povray", total_instructions=1e7),
                pinned_cores=[0],
            )
        )
        ticks = xcs_system.run_until_finished()
        assert vm.finished
        assert vm.finish_time_usec is not None
        assert ticks >= 1

    def test_finished_vm_stops_consuming(self, xcs_system):
        vm = xcs_system.create_vm(
            VmConfig(
                name="finite",
                workload=application_workload("povray", total_instructions=1e6),
                pinned_cores=[0],
            )
        )
        xcs_system.run_until_finished()
        instructions = vm.instructions_retired
        xcs_system.run_ticks(5)
        assert vm.instructions_retired == pytest.approx(instructions)
        assert vm.instructions_retired <= 1e6 + 1

    def test_run_until_finished_needs_finite_vm(self, xcs_system):
        make_vm(xcs_system)
        with pytest.raises(HypervisorError):
            xcs_system.run_until_finished()

    def test_run_until_finished_guard(self, xcs_system):
        xcs_system.create_vm(
            VmConfig(
                name="huge",
                workload=application_workload("gcc", total_instructions=1e18),
                pinned_cores=[0],
            )
        )
        with pytest.raises(HypervisorError):
            xcs_system.run_until_finished(max_ticks=3)


class TestPmcReferences:
    def test_llc_references_converge_to_truth(self, xcs_system):
        """Per-vCPU virtualised LLC_REFERENCES tracks the truth accumulator
        to within the one outstanding carry fraction.

        Regression test: each sub-step's fractional access count used to
        be truncated independently, dropping up to one reference per
        sub-step and systematically undercounting over a window.
        """
        vms = [
            make_vm(xcs_system, f"v{i}", app="lbm", core=i % 2)
            for i in range(4)
        ]
        xcs_system.run_ticks(50)
        for vm in vms:
            vcpu = vm.vcpus[0]
            xcs_system.perfctr.flush_running(vcpu.gid)
            counted = xcs_system.perfctr.account(vcpu.gid).read(
                PmcEvent.LLC_REFERENCES
            )
            assert counted == pytest.approx(vcpu.llc_accesses, abs=1.0)

    def test_references_at_least_misses(self, xcs_system):
        vm = make_vm(xcs_system, app="lbm")
        xcs_system.run_ticks(10)
        vcpu = vm.vcpus[0]
        xcs_system.perfctr.flush_running(vcpu.gid)
        account = xcs_system.perfctr.account(vcpu.gid)
        assert (
            account.read(PmcEvent.LLC_REFERENCES)
            >= account.read(PmcEvent.LLC_MISSES)
        )


class TestFinishRefill:
    @pytest.mark.parametrize("engine", ["scalar", "batch"])
    @pytest.mark.parametrize(
        "scheduler_cls", [CreditScheduler, CfsScheduler, RtdsScheduler]
    )
    def test_finishing_vm_hands_core_over_in_same_tick(
        self, scheduler_cls, engine
    ):
        """A finite VM that finishes mid-tick vacates its core, and the
        scheduler's ``refill_core`` runs the queued VM for the rest of
        that tick instead of leaving the core idle until the next."""
        system = VirtualizedSystem(scheduler_cls(), tick_engine=engine)
        short = system.create_vm(
            VmConfig(
                name="short",
                workload=application_workload("povray", total_instructions=1e6),
                pinned_cores=[0],
            )
        )
        queued = make_vm(system, "queued", app="povray", core=0)
        system.run_ticks(1)
        # Both ran on core 0 in tick 0: the short VM first (the queued
        # hog never yields mid-tick), then the queued one after it.
        assert short.finished
        assert system.last_tick_cycles[short.vcpus[0].gid] > 0
        assert system.last_tick_cycles.get(queued.vcpus[0].gid, 0) > 0


class TestObservers:
    def test_tick_observer_called_each_tick(self, xcs_system):
        seen = []
        xcs_system.add_tick_observer(lambda s, t: seen.append(t))
        xcs_system.run_ticks(4)
        assert seen == [0, 1, 2, 3]

    def test_last_tick_metrics_exposed(self, xcs_system):
        vm = make_vm(xcs_system, app="lbm")
        records = []
        xcs_system.add_tick_observer(
            lambda s, t: records.append(
                s.last_tick_misses.get(vm.vcpus[0].gid, 0.0)
            )
        )
        xcs_system.run_ticks(3)
        assert all(m > 0 for m in records)


class TestMigration:
    def test_migrate_changes_core(self):
        system = VirtualizedSystem(CreditScheduler(), numa_machine())
        vm = make_vm(system, core=0)
        system.run_ticks(2)
        system.migrate_vcpu(vm.vcpus[0], 4)
        system.run_ticks(2)
        assert vm.vcpus[0].current_core == 4

    def test_cross_socket_migration_flushes_llc(self):
        system = VirtualizedSystem(CreditScheduler(), numa_machine())
        vm = make_vm(system, core=0)
        system.run_ticks(10)
        assert system.llc_domains[0].occupancy_of(vm.vcpus[0].gid) > 0
        system.migrate_vcpu(vm.vcpus[0], 4)
        assert system.llc_domains[0].occupancy_of(vm.vcpus[0].gid) == 0

    def test_same_socket_migration_keeps_llc(self):
        system = VirtualizedSystem(CreditScheduler(), numa_machine())
        vm = make_vm(system, core=0)
        system.run_ticks(10)
        before = system.llc_domains[0].occupancy_of(vm.vcpus[0].gid)
        system.migrate_vcpu(vm.vcpus[0], 1)
        assert system.llc_domains[0].occupancy_of(vm.vcpus[0].gid) == before

    def test_remote_memory_detection(self):
        system = VirtualizedSystem(CreditScheduler(), numa_machine())
        vm = make_vm(system, core=0)  # memory_node defaults to 0
        assert system.is_memory_remote(vm.vcpus[0], 0) is False
        assert system.is_memory_remote(vm.vcpus[0], 4) is True

    def test_remote_execution_slower(self):
        def run(core):
            system = VirtualizedSystem(CreditScheduler(), numa_machine())
            vm = system.create_vm(
                VmConfig(
                    name="m",
                    workload=application_workload("milc"),
                    memory_node=0,
                    pinned_cores=[core],
                )
            )
            system.run_ticks(30)
            vm.reset_metrics()
            system.run_ticks(30)
            return vm.ipc

        assert run(4) < run(0)


class TestTruthMetrics:
    def test_truth_llc_cap_zero_before_running(self, xcs_system):
        vm = make_vm(xcs_system)
        assert xcs_system.truth_llc_cap(vm.vcpus[0]) == 0.0

    def test_truth_llc_cap_matches_profile_scale(self, xcs_system):
        vm = make_vm(xcs_system, app="lbm")
        xcs_system.run_ticks(30)
        vm.reset_metrics()
        xcs_system.run_ticks(30)
        rate = xcs_system.truth_llc_cap(vm.vcpus[0])
        assert 300_000 < rate < 550_000  # calibrated solo rate ~419k

    def test_context_switch_cost_charged(self):
        # Two CPU-bound VMs sharing a core: each context switch burns
        # cycles, so total instructions lag the zero-cost configuration.
        def total_instructions(cost):
            system = VirtualizedSystem(
                CreditScheduler(), context_switch_cost_cycles=cost
            )
            a = make_vm(system, "a", app="povray", core=0)
            b = make_vm(system, "b", app="povray", core=0)
            system.run_ticks(60)
            return a.instructions_retired + b.instructions_retired

        assert total_instructions(500_000) < total_instructions(0)

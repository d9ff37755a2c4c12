"""Cross-feature composition tests.

The value of building everything in one repository: the mechanisms can be
combined — partitioning under a Kyoto scheduler, UCP on CFS, MemGuard on
a NUMA machine with migrations — and the combinations must behave
sensibly together.
"""

import pytest

from repro.core.ks4linux import KS4Linux
from repro.core.ks4xen import KS4Xen
from repro.core.memguard import MemGuardScheduler
from repro.hardware.specs import numa_machine
from repro.hypervisor.system import VirtualizedSystem
from repro.partitioning.static import apply_page_coloring
from repro.partitioning.ucp import UcpController
from repro.schedulers.cfs import CfsScheduler

from conftest import make_vm


class TestColoringPlusKyoto:
    def test_colored_victim_with_kyoto_disruptor(self):
        """Belt and suspenders: the victim gets a colour slice AND the
        disruptor has a permit — the victim reaches solo performance."""
        system = VirtualizedSystem(KS4Xen())
        sen = make_vm(system, "sen", app="omnetpp", core=0)
        dis = make_vm(system, "dis", app="lbm", core=1, llc_cap=100_000.0)
        apply_page_coloring(system, {sen: 110_000})
        system.run_ticks(30)
        sen.reset_metrics()
        system.run_ticks(90)
        contended_ipc = sen.vcpus[0].ipc

        solo = VirtualizedSystem(KS4Xen())
        ref = make_vm(solo, "ref", app="omnetpp", core=0)
        solo.run_ticks(30)
        ref.reset_metrics()
        solo.run_ticks(90)
        assert contended_ipc == pytest.approx(ref.vcpus[0].ipc, rel=0.05)
        # And the disruptor is still punished for its own overshoot.
        assert system.scheduler.kyoto.punishments(dis) > 0

    def test_coloring_flush_on_migration(self):
        system = VirtualizedSystem(KS4Xen(), numa_machine())
        vm = make_vm(system, "v", app="gcc", core=0)
        apply_page_coloring(system, {vm: 50_000})
        system.run_ticks(10)
        assert system.llc_domains[0].occupancy_of(vm.vcpus[0].gid) > 0
        system.migrate_vcpu(vm.vcpus[0], 4)
        assert system.llc_domains[0].occupancy_of(vm.vcpus[0].gid) == 0
        system.run_ticks(10)  # keeps running on the new socket


class TestUcpOnCfs:
    def test_ucp_with_cfs_scheduler(self):
        system = VirtualizedSystem(CfsScheduler())
        sen = make_vm(system, "sen", app="omnetpp", core=0)
        make_vm(system, "dis", app="lbm", core=1)
        controller = UcpController(system, period_ticks=6)
        system.run_ticks(60)
        assert controller.repartitions > 5
        assert sen.instructions_retired > 0

    def test_ucp_with_ks4linux(self):
        """Dynamic partitioning *and* pollution permits together."""
        system = VirtualizedSystem(KS4Linux())
        make_vm(system, "sen", app="omnetpp", core=0, llc_cap=250_000.0)
        dis = make_vm(system, "dis", app="lbm", core=1, llc_cap=250_000.0)
        UcpController(system, period_ticks=6)
        system.run_ticks(90)
        assert system.scheduler.kyoto.punishments(dis) > 0


class TestMemGuardOnNuma:
    def test_memguard_with_migration(self):
        system = VirtualizedSystem(MemGuardScheduler(), numa_machine())
        vm = make_vm(system, "v", app="lbm", core=0, llc_cap=100_000.0)
        system.run_ticks(15)
        system.migrate_vcpu(vm.vcpus[0], 4)
        system.run_ticks(15)
        budget = system.scheduler.budget_of(vm)
        assert budget.throttle_events > 0
        assert vm.vcpus[0].current_core in (4, None)

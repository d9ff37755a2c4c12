"""Tests for the Xen credit scheduler (XCS)."""

import pytest

from repro.hypervisor.system import VirtualizedSystem
from repro.hypervisor.vm import VmConfig
from repro.schedulers.credit import CREDITS_PER_TICK, CreditScheduler
from repro.workloads.profiles import application_workload

from conftest import make_vm


def duty_cycle(system, vm, ticks=60):
    ran = [0]
    gid = vm.vcpus[0].gid
    system.add_tick_observer(
        lambda s, t: ran.__setitem__(0, ran[0] + (gid in s.last_tick_cycles))
    )
    system.run_ticks(ticks)
    return ran[0] / ticks


class TestSoloVm:
    def test_runs_continuously(self, xcs_system):
        vm = make_vm(xcs_system)
        assert duty_cycle(xcs_system, vm) == 1.0

    def test_account_created(self, xcs_system):
        vm = make_vm(xcs_system)
        account = xcs_system.scheduler.account(vm.vcpus[0])
        assert account.weight == 256
        assert account.cap_percent is None


class TestFairSharing:
    def test_equal_weights_split_evenly(self, xcs_system):
        a = make_vm(xcs_system, "a", core=0)
        make_vm(xcs_system, "b", core=0)
        share = duty_cycle(xcs_system, a, ticks=90)
        assert share == pytest.approx(0.5, abs=0.1)

    def test_weights_bias_the_split(self, xcs_system):
        heavy = xcs_system.create_vm(
            VmConfig(
                name="heavy",
                workload=application_workload("povray"),
                weight=768,
                pinned_cores=[0],
            )
        )
        make_vm(xcs_system, "light", app="povray", core=0)
        share = duty_cycle(xcs_system, heavy, ticks=120)
        assert share > 0.6

    def test_three_way_share(self, xcs_system):
        vms = [make_vm(xcs_system, f"v{i}", app="povray", core=0) for i in range(3)]
        shares = []
        for vm in vms:
            system = VirtualizedSystem(CreditScheduler())
            clones = [make_vm(system, f"v{i}", app="povray", core=0) for i in range(3)]
            shares.append(duty_cycle(system, clones[vms.index(vm)], ticks=90))
        for share in shares:
            assert share == pytest.approx(1 / 3, abs=0.12)

    def test_slice_granularity_rotation(self, xcs_system):
        """A vCPU keeps the core for a whole 30ms slice before rotating
        (three consecutive ticks), reproducing the paper's Fig 2 pattern."""
        a = make_vm(xcs_system, "a", core=0)
        make_vm(xcs_system, "b", core=0)
        timeline = []
        gid = a.vcpus[0].gid
        xcs_system.add_tick_observer(
            lambda s, t: timeline.append(gid in s.last_tick_cycles)
        )
        xcs_system.run_ticks(18)
        # Expect runs of exactly 3 (one slice) alternating.
        runs = []
        current, count = timeline[0], 0
        for state in timeline:
            if state == current:
                count += 1
            else:
                runs.append(count)
                current, count = state, 1
        assert all(r == 3 for r in runs[:-1])


class TestCaps:
    @pytest.mark.parametrize("cap,expected", [(30, 0.3), (60, 0.6)])
    def test_cap_limits_duty_cycle(self, xcs_system, cap, expected):
        vm = xcs_system.create_vm(
            VmConfig(
                name="capped",
                workload=application_workload("povray"),
                cap_percent=cap,
                pinned_cores=[0],
            )
        )
        assert duty_cycle(xcs_system, vm, ticks=100) == pytest.approx(
            expected, abs=0.07
        )

    def test_capped_vm_parked_even_on_idle_machine(self, xcs_system):
        """A cap is a hard limit: no work conservation for capped VMs."""
        vm = xcs_system.create_vm(
            VmConfig(
                name="capped",
                workload=application_workload("povray"),
                cap_percent=50,
                pinned_cores=[0],
            )
        )
        share = duty_cycle(xcs_system, vm, ticks=100)
        assert share < 0.65

    def test_uncapped_over_vcpu_work_conserves(self, xcs_system):
        """Without a cap, an OVER vCPU still runs when the core is idle."""
        vm = make_vm(xcs_system, "solo", app="povray", core=0)
        assert duty_cycle(xcs_system, vm, ticks=60) == 1.0


class TestPriorities:
    def test_credits_bounded(self, xcs_system):
        vm = make_vm(xcs_system)
        xcs_system.run_ticks(60)
        account = xcs_system.scheduler.account(vm.vcpus[0])
        bound = CREDITS_PER_TICK * xcs_system.ticks_per_slice
        assert -bound <= account.credits <= bound

    def test_replacement_occupant_starts_fresh_stint(self, xcs_system):
        """A mid-slice occupant change (finish, preemption, steal) must not
        charge the new occupant for its predecessor's ticks.

        Regression test: the stint counter used to be per-core only, so a
        replacement inherited the old occupant's tick count and was
        rotated to the back of the round-robin order after a short,
        unfairly truncated slice.
        """
        a = make_vm(xcs_system, "a", app="povray", core=0)
        b = make_vm(xcs_system, "b", app="povray", core=0)
        c = make_vm(xcs_system, "c", app="povray", core=0)
        ga, gb, gc = (vm.vcpus[0].gid for vm in (a, b, c))
        sched = xcs_system.scheduler
        core = xcs_system.machine.core(0)
        # A occupies the core for two of its three slice ticks...
        xcs_system.context_switch(core, a.vcpus[0])
        sched.on_tick_end(0)
        sched.on_tick_end(1)
        assert sched._stint[0] == 2
        assert sched._stint_gid[0] == ga
        # ... then B replaces it mid-slice.  B's stint starts at 1; with
        # the per-core counter it would hit ticks_per_slice immediately
        # and rotate B to the back after a single tick.
        xcs_system.context_switch(core, None)
        xcs_system.context_switch(core, b.vcpus[0])
        sched.on_tick_end(2)
        assert sched._stint[0] == 1
        assert sched._stint_gid[0] == gb
        assert sched._rr_order[0] == [ga, gb, gc]

    def test_idle_tick_resets_stint(self, xcs_system):
        a = make_vm(xcs_system, "a", app="povray", core=0)
        sched = xcs_system.scheduler
        core = xcs_system.machine.core(0)
        xcs_system.context_switch(core, a.vcpus[0])
        sched.on_tick_end(0)
        assert sched._stint[0] == 1
        xcs_system.context_switch(core, None)
        sched.on_tick_end(1)
        assert sched._stint[0] == 0
        assert sched._stint_gid[0] is None

    def test_finished_vcpu_releases_core(self, xcs_system):
        finite = xcs_system.create_vm(
            VmConfig(
                name="short",
                workload=application_workload("povray", total_instructions=1e6),
                pinned_cores=[0],
            )
        )
        other = make_vm(xcs_system, "long", app="povray", core=0)
        xcs_system.run_ticks(100)
        assert finite.finished
        # The survivor gets the whole core afterwards.
        start = other.instructions_retired
        xcs_system.run_ticks(30)
        gained = other.instructions_retired - start
        solo = VirtualizedSystem(CreditScheduler())
        solo_vm = make_vm(solo, app="povray", core=0)
        solo.run_ticks(30)
        assert gained == pytest.approx(solo_vm.instructions_retired, rel=0.1)

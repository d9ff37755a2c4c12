"""Tests for XCS work stealing (SMP load balancing)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ks4xen import KS4Xen
from repro.hardware.specs import numa_machine
from repro.hypervisor.system import VirtualizedSystem
from repro.hypervisor.vm import VmConfig
from repro.schedulers.credit import CreditScheduler
from repro.telemetry import MetricsRecorder
from repro.workloads.profiles import application_workload

from conftest import make_vm


def unpinned_vm(system, name, app="povray"):
    return system.create_vm(
        VmConfig(name=name, workload=application_workload(app))
    )


class TestWorkStealing:
    def test_idle_cores_steal_queued_work(self):
        """Five unpinned CPU hogs on four cores: stealing keeps every
        core busy, so aggregate throughput approaches 4 cores' worth."""
        system = VirtualizedSystem(CreditScheduler())
        vms = [unpinned_vm(system, f"v{i}") for i in range(5)]
        system.run_ticks(90)
        total = sum(vm.instructions_retired for vm in vms)

        solo = VirtualizedSystem(CreditScheduler())
        ref = unpinned_vm(solo, "ref")
        solo.run_ticks(90)
        one_core = ref.instructions_retired
        assert total > 3.7 * one_core

    def test_pinned_vcpus_never_stolen(self):
        system = VirtualizedSystem(CreditScheduler())
        pinned_a = system.create_vm(
            VmConfig(name="a", workload=application_workload("povray"),
                     pinned_cores=[0])
        )
        system.create_vm(
            VmConfig(name="b", workload=application_workload("povray"),
                     pinned_cores=[0])
        )
        system.run_ticks(60)
        # Both share core 0 at ~50% despite three idle cores.
        assert pinned_a.vcpus[0].current_core in (0, None)
        half_core = 0.5 * 60 * system.cycles_per_tick()
        assert pinned_a.cycles_run == pytest.approx(half_core, rel=0.2)

    def test_stolen_vcpu_reassigned(self):
        system = VirtualizedSystem(CreditScheduler())
        # Two unpinned VMs land on cores 0 and 1 at admission; a third
        # initially queues behind one of them, then gets stolen.
        vms = [unpinned_vm(system, f"v{i}") for i in range(3)]
        system.run_ticks(10)
        cores = {
            system.scheduler.assigned_core[vm.vcpus[0].gid] for vm in vms
        }
        assert len(cores) == 3  # all on distinct cores after stealing

    def test_stealing_prefers_same_socket(self):
        from repro.hardware.specs import numa_machine

        system = VirtualizedSystem(CreditScheduler(), numa_machine())
        # Fill socket 0's core 0 with two unpinned VMs; socket-0 cores
        # should pick up the spare before socket-1 cores do.
        vms = [unpinned_vm(system, f"v{i}") for i in range(2)]
        system.run_ticks(5)
        for vm in vms:
            core = vm.vcpus[0].current_core
            assert core is not None
            assert system.machine.core(core).socket_id == 0


# -- the early-exit steal scan against the candidate-list reference -----------


def _reference_steal(scheduler, core_id):
    """``CreditScheduler._steal`` as it was before the early-exit scan,
    frozen: each runqueue is filtered into a full candidate list (runnable,
    not parked) before the first stealable vCPU is taken from it."""
    machine = scheduler.system.machine
    my_socket = machine.core(core_id).socket_id
    accounts = scheduler.accounts

    def candidates(other_core_id):
        order = scheduler._rr_order.get(other_core_id)
        if not order:
            return []
        by_gid = scheduler._vcpu_by_gid
        return [
            vcpu
            for vcpu in (by_gid[gid] for gid in order)
            if vcpu.runnable and not scheduler.is_parked(vcpu)
        ]

    def steal_from(other_core_id):
        for vcpu in candidates(other_core_id):
            if (
                vcpu.pinned_core is None
                and not vcpu.is_running
                and accounts[vcpu.gid].credits > 0
            ):
                scheduler.reassign_vcpu(vcpu, core_id)
                scheduler.system.recorder.inc("credit.steals")
                return vcpu
        return None

    for want_same_socket in (True, False):
        for other in machine.cores:
            if other.core_id == core_id:
                continue
            if (other.socket_id == my_socket) is not want_same_socket:
                continue
            vcpu = steal_from(other.core_id)
            if vcpu is not None:
                return vcpu
    return None


#: What a queued vCPU is doing when an idle core looks for work.
STATES = ("waiting", "running", "blocked", "paused", "parked")

#: Home cores: three on socket 0 and two on socket 1, so runqueues are
#: often several vCPUs deep and the walk order decides the steal.
queued_vcpus = st.lists(
    st.tuples(
        st.sampled_from([0, 1, 2, 4, 5]),  # home core
        st.booleans(),  # pinned to its home core?
        st.sampled_from(STATES),
        st.sampled_from([-300.0, -0.5, 0.0, 0.5, 100.0, 300.0]),  # credits
    ),
    min_size=1,
    max_size=16,
)


def _queued_system(vcpu_specs):
    """KS4Xen on two 4-core sockets with the given runqueues."""
    system = VirtualizedSystem(
        KS4Xen(), numa_machine(), recorder=MetricsRecorder()
    )
    scheduler = system.scheduler
    for index, (home, pinned, state, credits) in enumerate(vcpu_specs):
        vm = system.create_vm(
            VmConfig(
                name=f"q{index}",
                workload=application_workload("gcc"),
                pinned_cores=[home] if pinned else None,
                llc_cap=100_000,
            )
        )
        vcpu = vm.vcpus[0]
        scheduler.reassign_vcpu(vcpu, home)
        scheduler.accounts[vcpu.gid].credits = credits
        if state == "running":
            vcpu.current_core = home
        elif state == "blocked":
            vcpu.blocked_until_usec = 1_000
        elif state == "paused":
            vcpu.paused = True
        elif state == "parked":
            scheduler.kyoto.account_of(vm).quota = -1.0
    return system


def _steal_outcome(system, stolen):
    scheduler = system.scheduler
    return (
        None if stolen is None else stolen.gid,
        scheduler._rr_order,
        scheduler.assigned_core,
        system.recorder.counters.get("credit.steals", 0),
    )


class TestStealMatchesReference:
    @settings(max_examples=80, deadline=None)
    @given(specs=queued_vcpus, thief=st.integers(min_value=0, max_value=7))
    def test_same_vcpu_stolen_with_same_side_effects(self, specs, thief):
        system = _queued_system(specs)
        reference = _queued_system(specs)
        assert _steal_outcome(
            system, system.scheduler._steal(thief)
        ) == _steal_outcome(
            reference, _reference_steal(reference.scheduler, thief)
        )

    def test_every_predicate_skips_its_vcpu(self):
        """Deterministic pin: a pinned, a running, a blocked, a paused, a
        parked and an OVER vCPU queue ahead of the first stealable vCPU
        on core 1, a second one queues behind it, and a stealable vCPU
        waits on the remote socket."""
        specs = [
            (1, True, "waiting", 300.0),
            (1, False, "running", 300.0),
            (1, False, "blocked", 300.0),
            (1, False, "paused", 300.0),
            (1, False, "parked", 300.0),
            (1, False, "waiting", -0.5),
            (1, False, "waiting", 0.5),
            (5, False, "waiting", 300.0),
            (1, False, "waiting", 300.0),
        ]
        system = _queued_system(specs)
        reference = _queued_system(specs)
        stolen = system.scheduler._steal(0)
        assert stolen is system.vms[6].vcpus[0]
        assert system.scheduler.assigned_core[stolen.gid] == 0
        assert _steal_outcome(system, stolen) == _steal_outcome(
            reference, _reference_steal(reference.scheduler, 0)
        )


# -- the unpinned count: all-pinned fleets never walk a runqueue -------------


class _CountingLookups(dict):
    """A gid -> vCPU map that counts lookups (a runqueue walk does one per
    queued vCPU)."""

    lookups = 0

    def __getitem__(self, gid):
        self.lookups += 1
        return super().__getitem__(gid)


def _steal_walks(system, monkeypatch):
    """Spy on ``_steal``: one entry per call, the gid lookups it made."""
    walks = []
    steal = CreditScheduler._steal

    def spy(scheduler, core_id):
        by_gid = scheduler._vcpu_by_gid
        scheduler._vcpu_by_gid = counting = _CountingLookups(by_gid)
        try:
            return steal(scheduler, core_id)
        finally:
            scheduler._vcpu_by_gid = by_gid
            walks.append(counting.lookups)

    monkeypatch.setattr(CreditScheduler, "_steal", spy)
    return walks


class TestUnpinnedCount:
    def test_all_pinned_fleet_never_walks_a_runqueue(self, monkeypatch):
        """Eight vCPUs pinned to core 0 leave cores 1-3 idle: every idle
        pick asks ``_steal``, which returns at once."""
        system = VirtualizedSystem(KS4Xen())
        for index in range(8):
            system.create_vm(
                VmConfig(
                    name=f"p{index}",
                    workload=application_workload("gcc"),
                    pinned_cores=[0],
                    llc_cap=100_000,
                )
            )
        walks = _steal_walks(system, monkeypatch)
        system.run_ticks(12)
        assert len(walks) >= 3 * 12
        assert set(walks) == {0}

    def test_one_unpinned_vcpu_is_still_stolen(self, monkeypatch):
        system = VirtualizedSystem(CreditScheduler())
        for index in range(3):
            make_vm(system, f"p{index}", app="povray", core=0)
        roamer = unpinned_vm(system, "roamer")
        system.scheduler.reassign_vcpu(roamer.vcpus[0], 0)
        walks = _steal_walks(system, monkeypatch)
        system.run_ticks(3)
        assert max(walks) > 0
        assert roamer.vcpus[0].current_core not in (None, 0)

    def test_migrate_vcpu_pins_and_retire_uncounts(self, monkeypatch):
        """``migrate_vcpu`` pins an unpinned vCPU, so the count drops and
        the walks stop; retiring a pinned vCPU leaves the count alone,
        retiring an unpinned one drops it."""
        system = VirtualizedSystem(CreditScheduler())
        scheduler = system.scheduler
        pinned = make_vm(system, "pinned", app="povray", core=0)
        roamers = [unpinned_vm(system, f"r{index}") for index in range(2)]
        assert scheduler._unpinned == 2
        system.migrate_vcpu(roamers[0].vcpus[0], 1)
        assert roamers[0].vcpus[0].pinned_core == 1
        assert scheduler._unpinned == 1
        system.retire_vm(roamers[1])
        assert scheduler._unpinned == 0
        walks = _steal_walks(system, monkeypatch)
        system.run_ticks(5)
        assert walks and set(walks) == {0}
        system.retire_vm(roamers[0])
        system.retire_vm(pinned)
        assert scheduler._unpinned == 0


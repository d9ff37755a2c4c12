"""Tests for the cache-partitioning baselines (page coloring, UCP)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cachesim.perfmodel import CacheBehavior
from repro.hypervisor.system import VirtualizedSystem
from repro.hypervisor.vm import VmConfig
from repro.partitioning.static import PartitionedLlcDomain, apply_page_coloring
from repro.partitioning.ucp import UcpController, marginal_utility_allocation
from repro.schedulers.credit import CreditScheduler
from repro.workloads.profiles import application_behavior, application_workload

from conftest import make_vm


class TestPartitionedDomain:
    def test_validation(self):
        with pytest.raises(ValueError):
            PartitionedLlcDomain(0, {})
        with pytest.raises(ValueError):
            PartitionedLlcDomain(100, {1: 200})
        with pytest.raises(ValueError):
            PartitionedLlcDomain(100, {1: 0})

    def test_private_partition_isolated(self):
        domain = PartitionedLlcDomain(1000, {1: 400, 2: 400})
        for _ in range(50):
            domain.relax({1: 50.0, 2: 500.0}, {1: 400, 2: 4000})
        # Owner 2's massive pressure cannot evict owner 1's slice.
        assert domain.occupancy_of(1) == pytest.approx(400, rel=0.05)
        assert domain.occupancy_of(2) <= 400 + 1e-6

    def test_unallocated_owners_share_remainder(self):
        domain = PartitionedLlcDomain(1000, {1: 600})
        for _ in range(50):
            domain.relax({2: 100.0, 3: 100.0}, {2: 4000, 3: 4000})
        assert domain.occupancy_of(2) + domain.occupancy_of(3) <= 400 + 1e-6

    def test_no_shared_partition_rejects_strangers(self):
        domain = PartitionedLlcDomain(1000, {1: 1000})
        with pytest.raises(ValueError):
            domain.relax({2: 10.0}, {2: 100})

    def test_flush_owner(self):
        domain = PartitionedLlcDomain(1000, {1: 400})
        domain.relax({1: 100.0}, {1: 400})
        assert domain.flush_owner(1) > 0
        assert domain.occupancy_of(1) == 0

    def test_snapshot_and_usage(self):
        domain = PartitionedLlcDomain(1000, {1: 400})
        domain.relax({1: 100.0, 2: 50.0}, {1: 400, 2: 100})
        snap = domain.snapshot()
        assert snap[1] > 0 and snap[2] > 0
        assert domain.used_lines == pytest.approx(sum(snap.values()))
        assert domain.free_lines == pytest.approx(1000 - domain.used_lines)


owners = st.integers(min_value=1, max_value=5)  # 1 and 2 hold colours
domain_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("relax"),
            st.dictionaries(
                owners, st.floats(min_value=0, max_value=800), max_size=5
            ),
            st.dictionaries(
                owners, st.floats(min_value=1, max_value=1000), max_size=5
            ),
            st.one_of(st.none(), st.lists(owners, max_size=5)),
        ),
        st.tuples(
            st.just("insert"), owners, st.floats(min_value=0, max_value=700)
        ),
        st.tuples(st.just("flush_owner"), owners),
        st.tuples(st.just("reset")),
    ),
    max_size=25,
)


class TestMergedOccupancyMap:
    """The batch engine reads ``_occupancy`` and ``_state_version`` of a
    partitioned domain directly, and elides a relaxation only while the
    version stands still, so both must track the partitions exactly."""

    @settings(max_examples=150, deadline=None)
    @given(
        allocations=st.sampled_from([{1: 300.0, 2: 200.0}, {1: 600.0, 2: 400.0}]),
        ops=domain_ops,
    )
    def test_merged_map_tracks_partitions(self, allocations, ops):
        domain = PartitionedLlcDomain(1000, allocations)
        merged = domain._occupancy
        partitions = list(domain._private.values())
        if domain._shared is not None:
            partitions.append(domain._shared)
        for op in ops:
            before = list(merged.items())
            version_before = domain._state_version
            try:
                if op[0] == "relax":
                    domain.relax(op[1], op[2], op[3])
                elif op[0] == "insert":
                    domain.insert(op[1], op[2])
                elif op[0] == "flush_owner":
                    domain.flush_owner(op[1])
                else:
                    domain.reset()
            except ValueError:
                pass  # a stranger with no shared partition to land in
            union = {}
            for partition in partitions:
                union.update(partition.snapshot())
            assert domain._occupancy is merged
            assert list(merged.items()) == list(union.items())
            assert domain.snapshot() == union
            assert domain._state_version >= version_before
            if list(merged.items()) != before:
                assert domain._state_version > version_before


class TestPageColoringOnSystem:
    def test_coloring_protects_sensitive_vm(self):
        """Reserving most of the LLC for the sensitive VM removes the
        disruptor's influence — partitioning works, at the cost of
        rigidity (the paper's related-work trade-off)."""

        def victim_ipc(colored):
            system = VirtualizedSystem(CreditScheduler())
            sen = make_vm(system, "sen", app="omnetpp", core=0)
            make_vm(system, "dis", app="lbm", core=1)
            if colored:
                apply_page_coloring(system, {sen: 110_000})
            system.run_ticks(30)
            sen.reset_metrics()
            system.run_ticks(90)
            return sen.vcpus[0].ipc

        assert victim_ipc(True) > victim_ipc(False) * 1.1

    def test_coloring_hurts_when_undersized(self):
        """A too-small colour allocation caps the VM below its solo
        performance even with no co-runner — the rigidity cost."""

        def solo_ipc(colored_lines):
            system = VirtualizedSystem(CreditScheduler())
            vm = make_vm(system, "v", app="omnetpp", core=0)
            if colored_lines:
                apply_page_coloring(system, {vm: colored_lines})
            system.run_ticks(30)
            vm.reset_metrics()
            system.run_ticks(60)
            return vm.vcpus[0].ipc

        assert solo_ipc(20_000) < solo_ipc(None) * 0.9


class TestMarginalUtility:
    def test_validation(self):
        with pytest.raises(ValueError):
            marginal_utility_allocation(0, {}, {})
        with pytest.raises(ValueError):
            marginal_utility_allocation(100, {}, {}, granularity=0)

    def test_zero_rate_owner_gets_nothing(self):
        behaviors = {1: application_behavior("gcc"), 2: application_behavior("gcc")}
        alloc = marginal_utility_allocation(
            100_000, behaviors, {1: 100.0, 2: 0.0}
        )
        assert alloc.get(2, 0.0) == 0.0
        assert alloc[1] > 0

    def test_respects_footprint_caps(self):
        small = CacheBehavior(wss_lines=1000, lapki=100, base_cpi=0.5)
        behaviors = {1: small}
        alloc = marginal_utility_allocation(100_000, behaviors, {1: 100.0},
                                            granularity=100)
        assert alloc[1] <= 1000 + 100_000 / 100  # cap + one chunk

    def test_total_bounded(self):
        behaviors = {
            i: application_behavior(app)
            for i, app in enumerate(["gcc", "omnetpp", "soplex"])
        }
        rates = {i: 100.0 * (i + 1) for i in behaviors}
        alloc = marginal_utility_allocation(163_840, behaviors, rates)
        assert sum(alloc.values()) <= 163_840 + 1e-6

    def test_reuse_heavy_beats_streaming(self):
        """UCP's point: give cache to whoever converts it into hits."""
        behaviors = {
            1: application_behavior("omnetpp"),  # reuse-heavy
            2: application_behavior("lbm"),      # streaming
        }
        rates = {1: 100_000.0, 2: 100_000.0}
        alloc = marginal_utility_allocation(163_840, behaviors, rates)
        assert alloc.get(1, 0) > alloc.get(2, 0)


class TestUcpController:
    def test_validation(self):
        system = VirtualizedSystem(CreditScheduler())
        with pytest.raises(ValueError):
            UcpController(system, period_ticks=0)

    def test_repartitions_periodically(self):
        system = VirtualizedSystem(CreditScheduler())
        make_vm(system, "a", app="omnetpp", core=0)
        make_vm(system, "b", app="lbm", core=1)
        controller = UcpController(system, period_ticks=10)
        system.run_ticks(35)
        assert controller.repartitions == 3
        assert controller.last_allocation

    def test_ucp_protects_reuse_heavy_vm(self):
        def victim_ipc(with_ucp):
            system = VirtualizedSystem(CreditScheduler())
            sen = make_vm(system, "sen", app="omnetpp", core=0)
            make_vm(system, "dis", app="lbm", core=1)
            if with_ucp:
                UcpController(system, period_ticks=6)
            system.run_ticks(30)
            sen.reset_metrics()
            system.run_ticks(90)
            return sen.vcpus[0].ipc

        assert victim_ipc(True) > victim_ipc(False) * 1.05
